// Command srbench is the stablerank load benchmark. It generates seeded
// traffic for one workload, sends it over loopback to a stablerankd server
// built in the same process (or, for the randomized workload, calls the
// library directly), checks every answer, and prints the end-to-end metrics
// as the last line of its output: one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 1 it instead replays a sample
// of the ops one layer at a time and prints the per-layer metrics.
//
// Usage (from the repository root; srbench/run.sh builds and runs it):
//
//	srbench --workload verify|explore|mutate|randomized|all --seed N --seconds S --trace 0|1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"stablerank"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	w     *workload
	seed  int64
	dir   string
	pid   int
	conns int

	datasets  []namedDS
	csv       map[string][]byte
	regions   map[string][]region
	dataRand  *rand.Rand          // datasets, regions and cones: the same for every seed
	inputRand *rand.Rand          // everything the seed varies
	lib       *stablerank.Dataset // the randomized workload's dataset
	warmOps   []*Op
	cones     []exploreCone
	stream    *stream

	inst      *instance
	twin      *instance // traced run only
	mirror    *mirror   // traced run only
	instances atomic.Int64
	client    *http.Client
	rec       *recorder
	wr        *writer
	drift     *driftSub
}

func main() {
	name := flag.String("workload", "", "verify, explore, mutate, randomized, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 replays ops layer by layer and reports the per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for scratch files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "srbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// One connection and one scheduler thread per core.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	var ws []*workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(os.Stderr, "srbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	ok := true
	for _, w := range ws {
		b := &bench{w: w, seed: *seed, dir: *dir, pid: os.Getpid(), conns: nproc}
		var rep report
		var err error
		if *trace == 1 {
			rep, err = b.runTraced(time.Duration(*seconds) * time.Second)
		} else {
			rep, err = b.run(time.Duration(*seconds) * time.Second)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "srbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		printReport(w.name, rep)
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// printReport prints each metric on its own line and the JSON object last.
func printReport(name string, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%s %-28s %14.6g %s\n", name, k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	errRate := 0.0
	if rep.Attempted > 0 {
		errRate = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("%s %-28s %14.6g ratio (%d of %d ops failed)\n", name, "error_rate", errRate, rep.Failed, rep.Attempted)
	for k, m := range rep.Metrics { //srlint:ordered each entry is rewritten in place
		// JSON has no infinities: a p99 that failed ops pushed to +Inf is
		// reported as the largest finite number.
		if math.IsInf(m.Value, 1) {
			m.Value = math.MaxFloat64
			rep.Metrics[k] = m
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // finite numbers and strings always marshal
	}
	fmt.Println(string(line))
}

// dataSeed draws the datasets, the regions of interest and the cone
// catalogs. They are the same for every --seed, so that runs on different
// seeds differ only in the traffic they draw: which rankings, weights,
// cones, pages and deltas each op asks for.
const dataSeed = 2018

// prepare generates every input of the run: the datasets as CSV, the
// regions, the warm-up requests and the op stream.
func (b *bench) prepare() error {
	b.dataRand = rand.New(rand.NewSource(dataSeed))
	b.inputRand = rand.New(rand.NewSource(b.seed))
	b.csv = make(map[string][]byte)
	b.regions = make(map[string][]region)
	for _, nd := range b.w.data(b.dataRand) {
		var buf strings.Builder
		if err := nd.ds.WriteCSV(&buf, true); err != nil {
			return err
		}
		b.csv[nd.name] = []byte(buf.String())
		// The benchmark's own copy is parsed from the same CSV the server gets.
		ds, err := stablerank.ReadCSV(strings.NewReader(buf.String()), true)
		if err != nil {
			return err
		}
		b.datasets = append(b.datasets, namedDS{name: nd.name, ds: ds})
		b.regions[nd.name] = threeRegions(b.dataRand, ds.D())
	}
	b.lib = b.datasets[0].ds
	if b.w.warm != nil {
		b.warmOps = b.w.warm(b)
	}
	b.stream = newStream(b.seed+1, b.w.gen(b))
	b.rec = newRecorder()
	if b.w.name == "mutate" {
		b.wr = newWriter(b.datasets[0].ds)
	}
	return os.MkdirAll(b.dir, 0o755)
}

// setup builds a ready server: construction, dataset upload and the warm-up
// of the workload's resident analyzers. The randomized workload only loads
// its dataset.
func (b *bench) setup(ctx context.Context) (*instance, error) {
	if b.w.config == nil {
		ds, err := stablerank.ReadCSV(strings.NewReader(string(b.csv[b.datasets[0].name])), true)
		if err != nil {
			return nil, err
		}
		b.lib = ds
		return nil, nil
	}
	in, err := startInstance(b.w.config(b))
	if err != nil {
		return nil, err
	}
	for _, nd := range b.datasets {
		op := &Op{Method: "POST", Path: "/datasets/" + nd.name + "?header=true", Body: b.csv[nd.name]}
		if _, _, err := send(ctx, b.client, in.base, op); err != nil {
			in.close()
			return nil, fmt.Errorf("uploading %s: %w", nd.name, err)
		}
	}
	for _, op := range b.warmOps {
		if _, _, err := send(ctx, b.client, in.base, op); err != nil {
			in.close()
			return nil, fmt.Errorf("warming: %w", err)
		}
	}
	return in, nil
}

// timedSetups runs the set-up w.reps times and keeps the last instance.
func (b *bench) timedSetups(ctx context.Context) (float64, error) {
	var times []float64
	for i := 0; i < b.w.reps; i++ {
		runtime.GC() // the previous set-up's garbage is not this one's cost
		start := time.Now()
		in, err := b.setup(ctx)
		if err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < b.w.reps-1 && in != nil {
			in.close()
		} else {
			b.inst = in
		}
	}
	return median(times), nil
}

// exec runs one op against the main server (or the library) and records
// its answer; it reports whether the op succeeded.
func (b *bench) exec(ctx context.Context, op *Op) bool {
	if op.In.rnd != nil {
		ans, err := runRandomized(ctx, b.lib, op.In.rnd)
		if err != nil {
			b.rec.fail(op, err)
			return false
		}
		body, err := json.Marshal(ans)
		if err != nil {
			b.rec.fail(op, err)
			return false
		}
		b.rec.observe(op, body, 0)
		return true
	}
	if op.Seq > 0 {
		err := b.wr.patch(op, func() error {
			_, _, err := send(ctx, b.client, b.inst.base, op)
			return err
		})
		if err != nil {
			b.rec.fail(op, err)
			return false
		}
		return true
	}
	var e0 int64
	if b.wr != nil {
		e0 = b.wr.epoch.Load()
	}
	body, _, err := send(ctx, b.client, b.inst.base, op)
	if err != nil {
		b.rec.fail(op, err)
		return false
	}
	epoch := e0
	if b.wr != nil && (e0%2 != 0 || b.wr.epoch.Load() != e0) {
		epoch = -1
	}
	b.rec.observe(op, body, epoch)
	return true
}

// run is the untraced run: set-up, untimed warm-up traffic, an open-loop
// phase at the workload's rate and a closed-loop phase with one caller per
// core, then the answer checks.
func (b *bench) run(total time.Duration) (report, error) {
	ctx := context.Background()
	if err := b.prepare(); err != nil {
		return report{}, err
	}
	b.client = newClient(b.conns)
	setupS, err := b.timedSetups(ctx)
	if err != nil {
		return report{}, err
	}
	defer b.teardown()
	if b.w.name == "mutate" {
		if b.drift, err = subscribeDrift(b.inst.base, b.datasets[0].name); err != nil {
			return report{}, err
		}
	}

	warm := max(time.Second, total/12)
	closedLoop(warm, b.conns, func() bool { return b.exec(ctx, b.stream.next()) })

	// The phases alternate in short slices, so both sample the whole run
	// rather than one stretch of it.
	openDur, closedDur := openShare(total)
	n := int(math.Round(b.w.rate * openDur.Seconds()))
	var lat, lag []float64
	var openFailed, okN, failN int
	var sliceP50, sliceTput, sliceHeap []float64
	var kinds []*Op
	var ms runtime.MemStats
	for s := 0; s < phaseSlices; s++ {
		// Ops are drawn slice by slice so PATCHes stay in generation order.
		ops := b.stream.take((s+1)*n/phaseSlices - s*n/phaseSlices)
		open := openLoop(len(ops), b.w.rate, b.conns, func(i int) bool { return b.exec(ctx, ops[i]) })
		lat, lag = append(lat, open.latMS...), append(lag, open.lagMS...)
		openFailed += open.failed
		kinds = append(kinds, ops...)
		ok, failed, elapsed := closedLoop(closedDur/phaseSlices, b.conns, func() bool { return b.exec(ctx, b.stream.next()) })
		okN, failN = okN+ok, failN+failed
		sliceP50 = append(sliceP50, percentile(open.latMS, 50))
		sliceTput = append(sliceTput, float64(ok)/elapsed.Seconds())
		// Between slices, untimed: the heap that survives a full collection.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		sliceHeap = append(sliceHeap, float64(ms.HeapAlloc)/(1<<20))
	}
	logKinds(b.w.name, kinds, lat)
	kinds = nil
	fmt.Fprintf(os.Stderr, "srbench: %s: slice p50 ms %s\n", b.w.name, fmtSlices(sliceP50))
	fmt.Fprintf(os.Stderr, "srbench: %s: slice throughput 1/s %s\n", b.w.name, fmtSlices(sliceTput))
	fmt.Fprintf(os.Stderr, "srbench: %s: slice live heap MB %s\n", b.w.name, fmtSlices(sliceHeap))

	b.rec.runChecks()
	if b.w.final != nil {
		if err := b.w.final(ctx, b); err != nil {
			b.rec.addWrong("final check: %v", err)
		}
	}
	if b.drift != nil {
		if err := b.drift.stop(); err != nil {
			b.rec.addWrong("drift stream: %v", err)
		}
		b.drift = nil
	}
	b.logProblems()
	// Printed, not gated: see p99 in README.md.
	fmt.Printf("%s %-28s %14.6g ms (%d open-loop ops at %g ops/s)\n", b.w.name, "p99_ms", percentile(lat, 99), n, b.w.rate)
	fmt.Printf("%s %-28s %14.6g ms\n", b.w.name, "loadgen.lag_p99_ms", percentile(lag, 99))
	return report{
		Correct:   len(b.rec.wrong) == 0,
		Attempted: int64(n + okN + failN),
		Failed:    int64(openFailed + failN),
		Metrics: map[string]metric{
			"p50_ms":           {median(sliceP50), "ms"},
			"throughput_ops_s": {median(sliceTput), "1/s"},
			"setup_s":          {setupS, "s"},
			"live_heap_mb":     {median(sliceHeap), "MB"},
		},
	}, nil
}

// logKinds prints the open-loop latency of each op kind to stderr.
func logKinds(name string, ops []*Op, latMS []float64) {
	byKind := make(map[string][]float64)
	for i, op := range ops {
		byKind[op.Kind] = append(byKind[op.Kind], latMS[i])
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		l := byKind[k]
		fmt.Fprintf(os.Stderr, "srbench: %s: %-14s %6d ops  p50 %8.3f ms  p99 %8.3f ms\n", name, k, len(l), percentile(l, 50), percentile(l, 99))
	}
}

// fmtSlices formats per-slice figures for the log.
func fmtSlices(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(s, " ")
}

// phaseSlices is how many open/closed slices a run alternates. p50_ms,
// throughput_ops_s and live_heap_mb are medians over the slices, so a few
// seconds in which the machine's neighbours take a core, or a PATCH that
// drops an analyzer just before a reading, move a slice or two and not the
// figure.
const phaseSlices = 16

// openShare splits the measured time: four fifths open loop, where the
// workload's rate yields at least 1000 latency samples, and a fifth closed
// loop for throughput.
func openShare(total time.Duration) (open, closed time.Duration) {
	return total * 4 / 5, total / 5
}

func (b *bench) logProblems() {
	for _, f := range b.rec.failures {
		fmt.Fprintf(os.Stderr, "srbench: %s: failed op: %s\n", b.w.name, f)
	}
	for _, w := range b.rec.wrong {
		fmt.Fprintf(os.Stderr, "srbench: %s: WRONG ANSWER: %s\n", b.w.name, w)
	}
}

func (b *bench) teardown() {
	if b.drift != nil {
		_ = b.drift.stop() // already failing; the stream's own error adds nothing
	}
	if b.inst != nil {
		b.inst.close()
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
}

// scratchPath names a per-process scratch path under the benchmark directory.
func (b *bench) scratchPath(name string) string {
	return filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, b.pid))
}
