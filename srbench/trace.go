package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"stablerank"
	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/sampling"
	"stablerank/internal/store"
	"stablerank/internal/twod"
	"stablerank/internal/vecmat"
)

// The traced run replays a seeded sample of a workload's ops one layer at a
// time, each layer on its own copy of the state so that every copy sees
// every op once:
//
//   - net.request: the loopback request to the main server;
//   - server.handle: the same request through the in-process ServeHTTP of a
//     twin server that has received the same traffic;
//   - core.*: the library call that handler makes, on the benchmark's own
//     analyzers (skipped when the twin answered from its cache);
//   - md.*, vecmat.*, twod.*, mc.*, store.*: the internal entry points that
//     call reaches, on the benchmark's own pools.
//
// Spans stay in memory and are written out as JSON lines when the run ends.
// A layer's self time is its span minus its children's spans.

// span is one timed call at a layer boundary.
type span struct {
	Req    int                `json:"req"`
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Kind   string             `json:"kind,omitempty"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans. A nil tracer records nothing, which is how the
// untimed warm-up replays keep every copy of the state in step.
type tracer struct {
	t0    time.Time
	req   int
	kind  string
	spans []span
}

func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{Req: t.req, ID: len(t.spans) + 1, Parent: parent, Name: name, Kind: t.kind, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil && id > 0 {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) count(id int, name string, v float64) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = make(map[string]float64)
	}
	s.Counts[name] += v
}

// selfTimes returns each span's duration minus the durations of its
// children, in milliseconds, indexed by span ID - 1.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.ms()
		if s.Parent > 0 {
			self[s.Parent-1] -= s.ms()
		}
	}
	return self
}

// mirrorEntry is the benchmark's own analyzer for one server key, with its
// own copy of the sample pool for the internal replays.
type mirrorEntry struct {
	key  string
	a    *stablerank.Analyzer
	pool vecmat.Matrix
}

// mirror holds the benchmark's analyzers, least recently used first out
// beyond the server's own residency bound.
type mirror struct {
	ds      map[string]*stablerank.Dataset
	entries []*mirrorEntry // most recently used last
	store   *store.FileStore
	workers int // the server's sweep workers per request
}

const mirrorCap = 64 // the server's default MaxAnalyzers

func mirrorKey(in intent) string {
	return fmt.Sprintf("%s|%v|%v|%d|%v", in.ds, in.reg.axis, in.reg.cosine, in.samples, in.adaptive)
}

// acquire returns the resident entry for in's key, or builds it: the
// library's New + Warm, then the pool build and (for a durable server) the
// snapshot write and read it implies.
func (m *mirror) acquire(ctx context.Context, t *tracer, parent int, in intent) (*mirrorEntry, error) {
	key := mirrorKey(in)
	for i, e := range m.entries {
		if e.key == key {
			m.entries = append(append(m.entries[:i:i], m.entries[i+1:]...), e)
			return e, nil
		}
	}
	ds := m.ds[in.ds]
	sp := t.begin(parent, "core.acquire")
	a, err := stablerank.New(ds, analyzerOptions(in, m.workers)...)
	if err == nil && ds.D() > 2 {
		err = a.Warm(ctx)
	}
	t.end(sp)
	if err != nil {
		return nil, err
	}
	e := &mirrorEntry{key: key, a: a}
	if ds.D() > 2 {
		pb := t.begin(sp, "mc.pool_build")
		e.pool, err = mc.BuildPoolMatrix(ctx, mc.ConeSamplers(a.Region(), a.Seed()), in.samples, ds.D(), 0)
		t.end(pb)
		if err != nil {
			return nil, err
		}
		if m.store != nil {
			if err := snapshotRoundTrip(t, sp, m.store, key, e.pool); err != nil {
				return nil, err
			}
		}
	}
	m.entries = append(m.entries, e)
	if len(m.entries) > mirrorCap {
		m.entries = m.entries[1:]
	}
	return e, nil
}

// snapshotRoundTrip writes a pool snapshot and reads it back, as the
// server's snapshot cache does for a cold key and for an evicted one.
func snapshotRoundTrip(t *tracer, parent int, st *store.FileStore, key string, pool vecmat.Matrix) error {
	name := fmt.Sprintf("%016x", hash64([]byte(key)))
	w := t.begin(parent, "store.snapshot_write")
	err := st.Put(store.NSPools, name, store.EncodeSnapshot(pool))
	t.end(w)
	if err != nil {
		return err
	}
	r := t.begin(parent, "store.snapshot_read")
	raw, err := st.Get(store.NSPools, name)
	if err == nil {
		var got vecmat.Matrix
		if got, err = store.DecodeSnapshot(raw); err == nil && got.Rows() != pool.Rows() {
			err = fmt.Errorf("snapshot read back %d rows, wrote %d", got.Rows(), pool.Rows())
		}
	}
	t.end(r)
	return err
}

// queries translates an intent into library queries over ds.
func (in intent) queries(ds *stablerank.Dataset) []stablerank.Query {
	out := make([]stablerank.Query, len(in.qs))
	for i, q := range in.qs {
		switch q.Op {
		case "verify":
			rk := stablerank.Ranking{Order: in.ranking}
			if q.Weights != nil {
				rk = stablerank.RankingOf(ds, q.Weights)
			}
			out[i] = stablerank.VerifyQuery{Ranking: rk}
		case "toph":
			out[i] = stablerank.TopHQuery{H: q.H}
		case "above":
			out[i] = stablerank.AboveQuery{Threshold: q.S}
		case "enumerate":
			out[i] = stablerank.EnumerateQuery{Limit: q.Limit}
		}
	}
	return out
}

// facade replays the library call a query handler makes, then the internal
// entry points it reaches.
func (b *bench) facade(ctx context.Context, t *tracer, parent int, in intent) error {
	m := b.mirror
	ds := m.ds[in.ds]
	e, err := m.acquire(ctx, t, parent, in)
	if err != nil {
		return err
	}
	qs := in.queries(ds)
	enum := false
	for _, q := range qs {
		_, isVerify := q.(stablerank.VerifyQuery)
		enum = enum || !isVerify
	}
	name := "core.do_verify"
	if enum {
		name = "core.do_enum"
	}
	do := t.begin(parent, name)
	res, err := e.a.Do(ctx, qs...)
	t.end(do)
	if err != nil {
		return err
	}
	if ds.D() == 2 {
		if enum {
			iv, err := geom.Interval2DOf(e.a.Region())
			if err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rs := t.begin(do, "twod.raysweep")
			regions, err := twod.RaySweep(ds, iv)
			t.end(rs)
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			t.count(rs, "alloc_bytes", float64(after.TotalAlloc-before.TotalAlloc))
			t.count(rs, "regions", float64(len(regions)))
		}
		return nil
	}
	if enum {
		return replayEnumeration(ctx, t, do, ds, e, res)
	}
	return b.replaySweep(t, do, ds, e, in, qs, res)
}

// replaySweep replays the fused verify sweep: one constraint matrix per
// ranking, then one grouped pass over the pool. Its counts must reproduce
// the library's stabilities exactly.
func (b *bench) replaySweep(t *tracer, parent int, ds *stablerank.Dataset, e *mirrorEntry, in intent, qs []stablerank.Query, res []stablerank.Result) error {
	var mats []vecmat.Matrix
	var live []int
	rows := 0
	for i, q := range qs {
		c := t.begin(parent, "md.constraint")
		m, _, err := md.ConstraintMatrix(ds, q.(stablerank.VerifyQuery).Ranking)
		t.end(c)
		if err != nil {
			continue // an infeasible ranking; the library reports it per query
		}
		mats = append(mats, m)
		live = append(live, i)
		if v := res[i].Verification; v != nil {
			rows = max(rows, v.SampleCount)
			if in.adaptive > 0 {
				t.count(parent, "adaptive_rows", float64(v.SampleCount))
				t.count(parent, "pool_rows", float64(e.pool.Rows()))
			}
		}
	}
	if len(mats) == 0 {
		return nil
	}
	grouped, starts := vecmat.ConcatGroups(ds.D(), mats)
	// The library shards the sweep across the server's workers; so does the
	// replay, over contiguous row ranges.
	workers := b.mirror.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts := make([][]int, workers)
	var wg sync.WaitGroup
	sw := t.begin(parent, "vecmat.sweep")
	for w := range parts {
		parts[w] = make([]int, len(mats))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vecmat.CountInsideGrouped(grouped, starts, e.pool, rows*w/workers, rows*(w+1)/workers, parts[w])
		}(w)
	}
	wg.Wait()
	t.end(sw)
	counts := make([]int, len(mats))
	for _, p := range parts {
		for g, c := range p {
			counts[g] += c
		}
	}
	t.count(sw, "bytes", float64(8*rows*ds.D())+float64(grouped.Bytes()))
	if in.adaptive > 0 {
		return nil
	}
	for g, i := range live {
		v := res[i].Verification
		if v == nil || v.Stability != float64(counts[g])/float64(rows) {
			return fmt.Errorf("replayed sweep counts %d of %d rows, library reports %+v", counts[g], rows, v)
		}
	}
	return nil
}

// replayEnumeration drives an engine over a copy of the pool as deep as the
// library's cursor went.
func replayEnumeration(ctx context.Context, t *tracer, parent int, ds *stablerank.Dataset, e *mirrorEntry, res []stablerank.Result) error {
	depth := 0
	for _, r := range res {
		depth = max(depth, len(r.Stables))
	}
	ei := t.begin(parent, "md.engine_init")
	eng, err := md.NewEngineMatrix(ds, e.a.Region(), e.pool.Clone(), md.SamplePartition)
	t.end(ei)
	if err != nil {
		return err
	}
	for i := 0; i < depth; i++ {
		nx := t.begin(parent, "md.next")
		_, err := eng.Next(ctx)
		t.end(nx)
		if err != nil && err != md.ErrExhausted {
			return err
		}
	}
	t.count(parent, "lp_calls", float64(eng.LPCalls()))
	t.count(parent, "splits", float64(eng.Splits()))
	t.count(parent, "enumerations", 1)
	return nil
}

// replayPatch replays a PATCH on the benchmark's own analyzers: the delta
// splice into every resident analyzer of the dataset, the drift measurement
// on the full-space one, and the rank-shift sweeps it runs.
func (b *bench) replayPatch(ctx context.Context, t *tracer, parent int, in intent) error {
	m := b.mirror
	old := m.ds[in.ds]
	next, trace, err := dataset.ApplyDeltasTrace(old, in.deltas...)
	if err != nil {
		return err
	}
	m.ds[in.ds] = next
	ap := t.begin(parent, "core.delta_apply")
	var full *mirrorEntry
	for i, e := range m.entries {
		if !strings.HasPrefix(e.key, in.ds+"|") {
			continue
		}
		na, err := e.a.ApplyDelta(ctx, in.deltas...)
		if err != nil {
			t.end(ap)
			return err
		}
		m.entries[i] = &mirrorEntry{key: e.key, a: na, pool: e.pool}
		if _, isFull := na.Region().(geom.FullSpace); isFull && na.SampleCount() == mutateSamples {
			full = m.entries[i]
		}
	}
	t.end(ap)
	if full == nil {
		return nil
	}
	dr := t.begin(parent, "core.drift")
	_, err = full.a.LastDrift(ctx, mutateDriftRows)
	t.end(dr)
	if err != nil {
		return err
	}
	oldAttrs, newAttrs := attrsOf(old), attrsOf(next)
	rs := t.begin(dr, "mc.rankshift")
	for _, a := range trace {
		oi, ni := a.Index, a.Index
		switch a.Delta.Op {
		case stablerank.ItemAdd:
			oi = -1
		case stablerank.ItemRemove:
			ni = -1
		}
		// Indices of later deltas in a batch refer to intermediate states;
		// clamping keeps the timed sweep in range.
		oi, ni = min(oi, old.N()-1), min(ni, next.N()-1)
		if _, err := mc.RankShift(ctx, oldAttrs, newAttrs, oi, ni, full.pool, mutateDriftRows); err != nil {
			t.end(rs)
			return err
		}
	}
	t.end(rs)
	return nil
}

func attrsOf(ds *stablerank.Dataset) vecmat.Matrix {
	m := vecmat.New(ds.N(), ds.D())
	for i := 0; i < ds.N(); i++ {
		m.SetRow(i, ds.Attrs(i))
	}
	return m
}

// replayRandomized replays one randomized op: the facade call, then the
// operator it wraps, which must give the same answer.
func (b *bench) replayRandomized(ctx context.Context, t *tracer, spec *randSpec) (randAnswer, error) {
	top := t.begin(0, "core.randomized")
	ans, err := runRandomized(ctx, b.lib, spec)
	t.end(top)
	if err != nil {
		return ans, err
	}
	t.count(top, "samples", float64(ans.Total))
	for _, r := range ans.Results {
		t.count(top, "useful", r.Stability)
	}
	a, err := stablerank.New(b.lib, stablerank.WithCosineSimilarity(spec.axis, spec.cosine), stablerank.WithSeed(spec.seed))
	if err != nil {
		return ans, err
	}
	op := t.begin(top, "mc.operator")
	s, err := sampling.ForRegion(a.Region(), rand.New(rand.NewSource(spec.seed+1)))
	var res []mc.Result
	if err == nil {
		var o *mc.Operator
		if o, err = mc.NewOperator(b.lib, s, mc.WithMode(spec.mode, randK), mc.WithConfidenceLevel(0.05)); err == nil {
			res, err = o.TopH(ctx, randH, randFirst, randStep)
		}
	}
	t.end(op)
	if err != nil {
		return ans, err
	}
	if len(res) != len(ans.Results) {
		return ans, fmt.Errorf("operator found %d results, facade %d", len(res), len(ans.Results))
	}
	for i := range res {
		if res[i].Key != ans.Results[i].Key || res[i].Stability != ans.Results[i].Stability {
			return ans, fmt.Errorf("operator result %d differs from the facade's", i)
		}
	}
	return ans, nil
}

// replay runs one op through every layer. With a nil tracer it only keeps
// the copies of the state in step.
func (b *bench) replay(ctx context.Context, t *tracer, op *Op) error {
	if t != nil {
		t.req++
		t.kind = op.Kind
	}
	if op.In.rnd != nil {
		ans, err := b.replayRandomized(ctx, t, op.In.rnd)
		if err != nil {
			return err
		}
		body, err := json.Marshal(ans)
		if err != nil {
			return err
		}
		b.rec.observe(op, body, 0)
		return nil
	}
	top := t.begin(0, "net.request")
	var body []byte
	var xcache string
	var err error
	if op.Seq > 0 {
		err = b.wr.patch(op, func() error {
			body, xcache, err = send(ctx, b.client, b.inst.base, op)
			return err
		})
	} else {
		body, xcache, err = send(ctx, b.client, b.inst.base, op)
	}
	t.end(top)
	if err != nil {
		return err
	}
	if op.Seq == 0 {
		b.rec.observe(op, body, b.wr.epochOrZero())
	}

	h := t.begin(top, "server.handle")
	rr := httptest.NewRecorder()
	b.twin.srv.Handler().ServeHTTP(rr, httptest.NewRequest(op.Method, op.Path, bytes.NewReader(op.Body)))
	t.end(h)
	if rr.Code/100 != 2 || !bytes.Equal(rr.Body.Bytes(), body) {
		return fmt.Errorf("%w: twin server answered %d %s, main server %s", errDiverged, rr.Code, shorten(rr.Body.String()), shorten(string(body)))
	}
	t.count(h, "bytes", float64(len(body)))
	if op.In.cached {
		t.count(h, "cacheable", 1)
		if xcache == "hit" {
			t.count(h, "hits", 1)
			return nil // the handler answered from its cache
		}
	}
	if op.Seq > 0 {
		return b.replayPatch(ctx, t, h, op.In)
	}
	return b.facade(ctx, t, h, op.In)
}

var errDiverged = errors.New("layers diverged")

// epochOrZero is the dataset epoch for the traced replay, which applies ops
// one at a time.
func (w *writer) epochOrZero() int64 {
	if w == nil {
		return 0
	}
	return w.epoch.Load()
}

// statsz fetches the twin's /statsz.
func (b *bench) statsz() (map[string]any, error) {
	rr := httptest.NewRecorder()
	b.twin.srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/statsz", nil))
	var out map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	return out, nil
}

// num reads a number at a dotted path of a decoded /statsz; 0 if absent.
func num(m map[string]any, path string) float64 {
	var cur any = m
	for _, k := range strings.Split(path, ".") {
		mm, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = mm[k]
	}
	f, _ := cur.(float64)
	return f
}

// runTraced is the traced run: one set-up of a main and a twin server, an
// untimed warm-up replayed through every layer, then a replay of a seeded
// sample of ops on an open-loop schedule, recording spans.
func (b *bench) runTraced(total time.Duration) (report, error) {
	ctx := context.Background()
	if err := b.prepare(); err != nil {
		return report{}, err
	}
	b.client = newClient(b.conns)
	b.mirror = &mirror{ds: make(map[string]*stablerank.Dataset), workers: b.w.workers}
	for _, nd := range b.datasets {
		b.mirror.ds[nd.name] = nd.ds
	}
	if b.w.config != nil {
		var err error
		if b.inst, err = b.setup(ctx); err != nil {
			return report{}, err
		}
		defer b.teardown()
		if b.twin, err = b.setup(ctx); err != nil {
			return report{}, err
		}
		defer b.twin.close()
		if b.inst.dataDir != "" {
			st, err := store.Open(b.scratchPath("trace-store"))
			if err != nil {
				return report{}, err
			}
			b.mirror.store = st
			defer func() {
				_ = st.Close() // scratch store, removed next
				_ = os.RemoveAll(b.scratchPath("trace-store"))
			}()
		}
		for _, op := range b.warmOps {
			if err := b.facade(ctx, nil, 0, op.In); err != nil {
				return report{}, err
			}
		}
		if b.w.name == "mutate" {
			if b.drift, err = subscribeDrift(b.inst.base, b.datasets[0].name); err != nil {
				return report{}, err
			}
			twinDrift, err := subscribeDrift(b.twin.base, b.datasets[0].name)
			if err != nil {
				return report{}, err
			}
			defer twinDrift.stop()
		}
	}

	deadline := time.Now().Add(max(time.Second, total/12))
	for time.Now().Before(deadline) {
		if err := b.replay(ctx, nil, b.stream.next()); isDivergence(err) {
			b.rec.addWrong("%v", err)
			break
		}
	}

	var before map[string]any
	if b.twin != nil {
		var err error
		if before, err = b.statsz(); err != nil {
			return report{}, err
		}
	}
	t := &tracer{t0: time.Now()}
	// The replay runs each op through four layers in turn, so it is
	// scheduled at a sixth of the workload's rate.
	rate := b.w.rate / 6
	dur := total * 9 / 10
	n := int(math.Round(rate * dur.Seconds()))
	ops := b.stream.take(n)
	stop := time.Now().Add(dur)
	var attempted, failed int64
	open := openLoop(n, rate, 1, func(i int) bool {
		if time.Now().After(stop) {
			return true // past the run's time: the op is dropped, not replayed
		}
		attempted++
		if err := b.replay(ctx, t, ops[i]); err != nil {
			if isDivergence(err) {
				b.rec.addWrong("%v", err)
			}
			failed++
			b.rec.fail(ops[i], err)
			return false
		}
		return true
	})
	overhead, err := b.traceOverhead(ctx, ops[:min(len(ops), 40)])
	if err != nil {
		return report{}, err
	}
	var after map[string]any
	if b.twin != nil {
		if after, err = b.statsz(); err != nil {
			return report{}, err
		}
	}
	metrics := layerMetrics(t.spans, before, after)
	metrics["loadgen.lag_p99_ms"] = metric{percentile(open.lagMS, 99), "ms"}
	metrics["trace.overhead_frac"] = metric{overhead, "ratio"}
	if err := b.writeSpans(t.spans); err != nil {
		return report{}, err
	}

	b.rec.runChecks()
	if b.drift != nil {
		if err := b.drift.stop(); err != nil {
			b.rec.addWrong("drift stream: %v", err)
		}
		b.drift = nil
	}
	b.logProblems()
	fmt.Printf("%s %-28s %14d ops replayed, %d spans\n", b.w.name, "trace", attempted, len(t.spans))
	if attempted == 0 {
		return report{}, errors.New("no op was replayed")
	}
	return report{Correct: len(b.rec.wrong) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

func isDivergence(err error) bool { return errors.Is(err, errDiverged) }

// traceOverhead sends idempotent top-level calls twice, once inside a span
// and once bare, alternating which goes first, and returns (traced -
// untraced) / untraced summed over the pairs.
func (b *bench) traceOverhead(ctx context.Context, ops []*Op) (float64, error) {
	var traced, bare float64
	t := &tracer{t0: time.Now()}
	for i, op := range ops {
		if op.Method != "POST" && op.In.rnd == nil {
			continue
		}
		call := func() error {
			if op.In.rnd != nil {
				_, err := runRandomized(ctx, b.lib, op.In.rnd)
				return err
			}
			_, _, err := send(ctx, b.client, b.inst.base, op)
			return err
		}
		for j := 0; j < 2; j++ {
			if (i+j)%2 == 0 {
				sp := t.begin(0, "overhead")
				err := call()
				t.end(sp)
				if err != nil {
					return 0, err
				}
				traced += t.spans[sp-1].ms()
			} else {
				start := time.Now()
				if err := call(); err != nil {
					return 0, err
				}
				bare += float64(time.Since(start)) / 1e6
			}
		}
	}
	if bare == 0 {
		return 0, nil
	}
	return (traced - bare) / bare, nil
}

// writeSpans writes the spans as JSON lines under the benchmark directory.
func (b *bench) writeSpans(spans []span) error {
	f, err := os.Create(filepath.Join(b.dir, "spans-"+b.w.name+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics derives the per-layer metrics from the spans and the twin's
// /statsz before and after the replay. A layer the workload does not reach
// reads 0.
func layerMetrics(spans []span, before, after map[string]any) map[string]metric {
	self := selfTimes(spans)
	type agg struct {
		n, ms float64
		self  []float64
	}
	by := map[string]*agg{}
	counts := map[string]float64{}
	var patchMS, patchN, coveredMS, handleMS float64
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.ms += s.ms()
		a.self = append(a.self, self[i])
		for k, v := range s.Counts { //srlint:ordered sums commute
			counts[s.Name+"."+k] += v
		}
		if s.Name == "server.handle" {
			handleMS += s.ms()
			coveredMS += s.ms() - self[i]
			if s.Kind == "patch" {
				patchMS += s.ms()
				patchN++
			}
		}
	}
	mean := func(name string) float64 {
		if a := by[name]; a != nil {
			return a.ms / a.n
		}
		return 0
	}
	medianSelf := func(name string) float64 {
		if a := by[name]; a != nil {
			return median(a.self)
		}
		return 0
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	sum := func(name string) float64 {
		if a := by[name]; a != nil {
			return a.ms
		}
		return 0
	}
	diff := func(path string) float64 { return num(after, path) - num(before, path) }
	m := map[string]metric{
		"net.overhead_ms":           {medianSelf("net.request"), "ms"},
		"server.handle_ms":          {mean("server.handle"), "ms"},
		"server.self_ms":            {medianSelf("server.handle"), "ms"},
		"server.cache_hit_ratio":    {ratio(counts["server.handle.hits"], counts["server.handle.cacheable"]), "ratio"},
		"server.response_kb":        {ratio(counts["server.handle.bytes"], 1024*float64(len(filter(spans, "server.handle")))), "KB"},
		"server.analyzer_builds":    {diff("analyzers.builds"), "count"},
		"server.analyzer_evictions": {diff("analyzers.evictions"), "count"},
		"server.patch_ms":           {ratio(patchMS, patchN), "ms"},
		"core.acquire_ms":           {mean("core.acquire"), "ms"},
		"core.do_verify_ms":         {mean("core.do_verify"), "ms"},
		"core.do_enum_ms":           {mean("core.do_enum"), "ms"},
		"core.delta_apply_ms":       {mean("core.delta_apply"), "ms"},
		"core.drift_ms":             {mean("core.drift"), "ms"},
		"core.pool_mb":              {num(after, "analyzers.pool_bytes_total") / (1 << 20), "MB"},
		"plan.self_ms":              {medianSelf("core.do_verify"), "ms"},
		"plan.adaptive_row_ratio":   {ratio(counts["core.do_verify.adaptive_rows"], counts["core.do_verify.pool_rows"]), "ratio"},
		"md.constraint_ms":          {mean("md.constraint"), "ms"},
		"md.engine_init_ms":         {mean("md.engine_init"), "ms"},
		"md.next_ms":                {mean("md.next"), "ms"},
		"md.lp_calls":               {ratio(counts["core.do_enum.lp_calls"], counts["core.do_enum.enumerations"]), "count"},
		"md.splits":                 {ratio(counts["core.do_enum.splits"], counts["core.do_enum.enumerations"]), "count"},
		"md.split_ratio":            {ratio(counts["core.do_enum.splits"], counts["core.do_enum.lp_calls"]), "ratio"},
		"vecmat.sweep_ms":           {mean("vecmat.sweep"), "ms"},
		"vecmat.gb_per_s":           {ratio(counts["vecmat.sweep.bytes"]/1e9, sum("vecmat.sweep")/1e3), "GB/s"},
		"twod.raysweep_ms":          {mean("twod.raysweep"), "ms"},
		"twod.alloc_mb":             {ratio(counts["twod.raysweep.alloc_bytes"]/(1<<20), float64(len(filter(spans, "twod.raysweep")))), "MB"},
		"twod.regions":              {ratio(counts["twod.raysweep.regions"], float64(len(filter(spans, "twod.raysweep")))), "count"},
		"mc.pool_build_ms":          {mean("mc.pool_build"), "ms"},
		"mc.sample_us":              {ratio(1e3*sum("core.randomized"), counts["core.randomized.samples"]), "us"},
		"mc.useful_ratio":           {ratio(counts["core.randomized.useful"], float64(len(filter(spans, "core.randomized")))), "ratio"},
		"mc.rankshift_ms":           {mean("mc.rankshift"), "ms"},
		"rank.resort_ratio":         {ratio(diff("deltas.resorted"), diff("deltas.spliced")+diff("deltas.resorted")), "ratio"},
		"store.snapshot_read_ms":    {mean("store.snapshot_read"), "ms"},
		"store.snapshot_write_ms":   {mean("store.snapshot_write"), "ms"},
		"store.hit_ratio":           {ratio(diff("store.snapshots.hits"), diff("store.snapshots.hits")+diff("store.snapshots.misses")), "ratio"},
		"trace.coverage":            {ratio(coveredMS, handleMS), "ratio"},
	}
	return m
}

func filter(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}
