package main

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestPercentileOfKnownSample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1: percentile must not rely on order
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("p50 of no samples = %v, want NaN", got)
	}
	if got := percentile([]float64{1, 2, math.Inf(1)}, 99); !math.IsInf(got, 1) {
		t.Errorf("a failed op must count as missing the limit, p99 = %v", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 5 * ms, End: 7 * ms},
		{ID: 4, Parent: 2, Name: "a.child", Start: 1 * ms, End: 2 * ms},
	}
	want := []float64{5, 2, 2, 1}
	for i, got := range selfTimes(spans) {
		if math.Abs(got-want[i]) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", spans[i].Name, got, want[i])
		}
	}
}

func TestOpenLoopTimesFromDueTimeThroughAStall(t *testing.T) {
	const n, rate = 10, 200.0 // an op due every 5 ms
	res := openLoop(n, rate, 1, func(i int) bool {
		if i == 2 {
			time.Sleep(60 * time.Millisecond) // the injected stall
		}
		return i != 9
	})
	// Op 3 is due at 15 ms but cannot start before the stall ends at about
	// 70 ms: its latency must include that wait.
	if res.latMS[3] < 45 {
		t.Errorf("op 3 behind the stall: latency %v ms, want >= 45", res.latMS[3])
	}
	if res.latMS[0] > 30 {
		t.Errorf("op 0 before the stall: latency %v ms", res.latMS[0])
	}
	// The generator itself keeps its schedule while the worker stalls.
	if lag := percentile(res.lagMS, 100); lag > 30 {
		t.Errorf("generator lag %v ms during a worker stall", lag)
	}
	if res.failed != 1 || !math.IsInf(res.latMS[9], 1) {
		t.Errorf("failed = %d, latency of the failed op %v", res.failed, res.latMS[9])
	}
}

func TestOpStreamsArePureFunctionsOfTheSeed(t *testing.T) {
	take := func(w *workload, seed int64) []*Op {
		b := &bench{w: w, seed: seed, dir: t.TempDir()}
		if err := b.prepare(); err != nil {
			t.Fatal(err)
		}
		return append(append([]*Op(nil), b.warmOps...), b.stream.take(300)...)
	}
	for _, w := range workloads {
		a, b, c := take(w, 5), take(w, 5), take(w, 6)
		if len(a) != len(b) {
			t.Fatalf("%s: %d and %d ops from one seed", w.name, len(a), len(b))
		}
		for i := range a {
			if a[i].Kind != b[i].Kind || a[i].Method != b[i].Method || a[i].Path != b[i].Path ||
				!bytes.Equal(a[i].Body, b[i].Body) || a[i].Seq != b[i].Seq {
				t.Fatalf("%s: op %d differs between two streams of one seed", w.name, i)
			}
		}
		same := true
		for i := range c {
			same = same && i < len(a) && a[i].Path == c[i].Path && bytes.Equal(a[i].Body, c[i].Body)
		}
		if same {
			t.Errorf("%s: seeds 5 and 6 give the same ops", w.name)
		}
	}
}

func TestDeckDealsTheMixInEveryBlock(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := newDeck(4, 6, 7, 3)
	for block := 0; block < 50; block++ {
		count := make([]int, 4)
		for i := 0; i < 20; i++ {
			count[d.draw(r)]++
		}
		if !slices.Equal(count, []int{4, 6, 7, 3}) {
			t.Fatalf("block %d dealt %v, want [4 6 7 3]", block, count)
		}
	}
}
