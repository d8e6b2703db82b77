package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs
// without reordering xs; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// openResult is one open-loop phase: per-op latency measured from the op's
// due time (+Inf for a failed op, which misses any latency limit) and how
// late the generator handed each op over.
type openResult struct {
	latMS  []float64
	lagMS  []float64
	failed int
}

// openLoop runs n ops on a fixed schedule — op i is due at start + i/rate —
// across conns workers. An op waiting for a free worker keeps its due time,
// so a stall on one op shows in the latency of every op queued behind it.
func openLoop(n int, rate float64, conns int, exec func(i int) bool) openResult {
	res := openResult{latMS: make([]float64, n), lagMS: make([]float64, n)}
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the whole phase so handing an op over never blocks: a backlog
	// shows as latency, never as generator lag.
	jobs := make(chan job, n)
	var failed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ok := exec(j.i)
				lat := float64(time.Since(j.due)) / 1e6
				if !ok {
					lat = math.Inf(1)
					failed.Add(1)
				}
				res.latMS[j.i] = lat
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sleepUntil(due)
		res.lagMS[i] = float64(time.Since(due)) / 1e6
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	res.failed = int(failed.Load())
	return res
}

// spinWindow is how long before a due time the generator stops sleeping
// and spins: the runtime's timers fire up to a millisecond late on Linux,
// and every op is timed from its due time.
const spinWindow = 2 * time.Millisecond

// sleepUntil returns at t, or at once if t has passed.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop runs callers that each send their next op as soon as the
// previous one returns, until d has passed. It reports the ops that
// succeeded and failed and the time until the last one returned.
func closedLoop(d time.Duration, callers int, exec func() bool) (ok, failed int, elapsed time.Duration) {
	var nok, nfail atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if exec() {
					nok.Add(1)
				} else {
					nfail.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(nok.Load()), int(nfail.Load()), time.Since(start)
}
