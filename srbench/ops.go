package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"stablerank"
	"stablerank/server"
)

// Op is one generated operation: an HTTP request to stablerankd, or (for
// the randomized workload) one in-process library call. In describes the
// same operation in library terms, for the traced replay.
type Op struct {
	Kind   string
	Method string
	Path   string
	Body   []byte
	// Seq orders PATCH ops (1, 2, ...): they are applied in generation order
	// so the benchmark knows the final dataset.
	Seq int
	In  intent
	// Check verifies the first answer to this request against an answer the
	// server did not compute; nil when no oracle applies.
	Check func(body []byte) error
}

// stream hands out a workload's ops in generation order. The sequence is a
// pure function of the workload and the seed.
type stream struct {
	mu  sync.Mutex
	rng *rand.Rand
	gen func(r *rand.Rand) *Op
}

func newStream(seed int64, gen func(r *rand.Rand) *Op) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), gen: gen}
}

func (s *stream) next() *Op {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen(s.rng)
}

func (s *stream) take(n int) []*Op {
	ops := make([]*Op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

// instance is one stablerankd server behind a loopback listener.
type instance struct {
	srv     *server.Server
	hs      *http.Server
	base    string
	served  chan struct{}
	dataDir string
}

func startInstance(cfg server.Config) (*instance, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	in := &instance{
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		base:    "http://" + ln.Addr().String(),
		served:  make(chan struct{}),
		dataDir: cfg.DataDir,
	}
	go func() {
		defer close(in.served)
		_ = in.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return in, nil
}

// close stops the listener and every open connection, waits for the serve
// loop to return, shuts the server down and removes its data directory.
func (in *instance) close() {
	_ = in.hs.Close() // the only error is from closing an already closed listener
	<-in.served
	in.srv.Close()
	if in.dataDir != "" {
		_ = os.RemoveAll(in.dataDir) // scratch directory; a leftover is harmless
	}
}

// errStatus is a non-2xx answer; it counts in error_rate.
type errStatus struct {
	code int
	body string
}

func (e errStatus) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// send performs one HTTP op against base and returns the body of a 2xx
// answer together with its X-Cache header.
func send(ctx context.Context, client *http.Client, base string, op *Op) ([]byte, string, error) {
	var body io.Reader
	if op.Body != nil {
		body = bytes.NewReader(op.Body)
	}
	req, err := http.NewRequestWithContext(ctx, op.Method, base+op.Path, body)
	if err != nil {
		return nil, "", err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode/100 != 2 {
		return nil, "", errStatus{code: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	return data, resp.Header.Get("X-Cache"), nil
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// requestTimeout bounds one op; an op past it counts as failed.
const requestTimeout = 20 * time.Second

// maxPending caps the answers kept for the oracle checks after the phases.
const maxPending = 256

// recorder checks answers: identical requests must answer byte-identically
// within a run, and the first answer to each oracle-checked request is kept
// for checking once the measured phases are over.
type recorder struct {
	mu      sync.Mutex
	seen    map[uint64]uint64 // request hash -> answer hash
	pending []pendingCheck
	wrong   []string
	// failures keeps the first few failed ops for the log.
	failures []string
}

type pendingCheck struct {
	op   *Op
	body []byte
}

func newRecorder() *recorder { return &recorder{seen: make(map[uint64]uint64)} }

// observe records one answer. epoch names the dataset state the answer
// belongs to; answers that raced a dataset change pass epoch -1 and are
// only kept out of the byte-identity check.
func (r *recorder) observe(op *Op, body []byte, epoch int64) {
	sum := hash64(body)
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch >= 0 {
		key := hash64([]byte(fmt.Sprintf("%d %s %s %s", epoch, op.Method, op.Path, op.Body)))
		if prev, ok := r.seen[key]; !ok {
			r.seen[key] = sum
			if op.Check != nil && len(r.pending) < maxPending {
				r.pending = append(r.pending, pendingCheck{op: op, body: body})
			}
		} else if prev != sum {
			r.wrongf("%s %s: identical request answered differently within the run", op.Method, shorten(op.Path))
		}
	}
}

func hash64(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash.Hash writes never fail
	return h.Sum64()
}

func (r *recorder) fail(op *Op, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf("%s %s: %v", op.Method, shorten(op.Path), err))
	}
}

// wrongf records a wrong answer; the caller holds r.mu or owns r.
func (r *recorder) wrongf(format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) addWrong(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wrongf(format, args...)
}

// runChecks runs the deferred oracle checks.
func (r *recorder) runChecks() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, p := range r.pending {
		if err := p.op.Check(p.body); err != nil {
			r.wrongf("%s %s: %v", p.op.Method, shorten(p.op.Path), err)
		}
	}
	r.pending = nil
}

func shorten(s string) string {
	if len(s) > 120 {
		return s[:120] + "..."
	}
	return s
}

// writer applies PATCH ops in generation order and keeps the benchmark's
// own copy of the dataset in step with the server's.
type writer struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int // Seq of the PATCH allowed to go next
	// epoch is even while no PATCH is in flight; reads that start and end
	// in the same even epoch saw one dataset state.
	epoch atomic.Int64
	ds    *stablerank.Dataset
}

func newWriter(ds *stablerank.Dataset) *writer {
	w := &writer{next: 1, ds: ds}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// patch runs PATCH op in its turn: send applies it to the server, and on
// success the benchmark applies the same deltas to its own copy.
func (w *writer) patch(op *Op, send func() error) error {
	w.mu.Lock()
	for w.next != op.Seq {
		w.cond.Wait()
	}
	w.mu.Unlock()
	// Only the op holding the turn gets here, so w.ds is not contended.
	w.epoch.Add(1)
	err := send()
	if err == nil {
		var ds *stablerank.Dataset
		if ds, err = stablerank.ApplyDeltas(w.ds, op.In.deltas...); err == nil {
			w.ds = ds
		}
	}
	w.epoch.Add(1)
	w.mu.Lock()
	w.next++
	w.cond.Broadcast()
	w.mu.Unlock()
	return err
}

// dataset returns the benchmark's copy of the dataset; call it only when no
// PATCH is in flight.
func (w *writer) dataset() *stablerank.Dataset { return w.ds }

// driftSub is one GET /v1/{dataset}/drift subscriber, connected for the
// whole run on a connection of its own. It checks that the stream's dataset
// versions never go back.
type driftSub struct {
	cancel context.CancelFunc
	done   chan struct{}
	client *http.Client
	err    error // set by the reader goroutine before done closes
}

func subscribeDrift(base, name string) (*driftSub, error) {
	ctx, cancel := context.WithCancel(context.Background())
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/"+name+"/drift", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("drift subscription: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("drift subscription: status %d", resp.StatusCode)
	}
	s := &driftSub{cancel: cancel, done: make(chan struct{}), client: client}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		var last int64
		for sc.Scan() {
			var ev struct {
				Version int64 `json:"version"`
			}
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				s.err = fmt.Errorf("drift line: %w", err)
				return
			}
			if ev.Version < last {
				s.err = fmt.Errorf("drift version went back from %d to %d", last, ev.Version)
				return
			}
			last = ev.Version
		}
		// The scan ends when stop cancels the request; that error is ours.
	}()
	return s, nil
}

// stop disconnects the subscriber and waits for its reader to end.
func (s *driftSub) stop() error {
	s.cancel()
	<-s.done
	s.client.CloseIdleConnections()
	return s.err
}
