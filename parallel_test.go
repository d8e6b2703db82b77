package stablerank_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"stablerank"

	"stablerank/internal/mc"
)

// parallelTestDataset is a 3D catalog (Monte-Carlo engine) shared by the
// parallelism tests.
func parallelTestDataset() *stablerank.Dataset {
	return stablerank.Independent(rand.New(rand.NewSource(11)), 25, 3)
}

func parallelTestAnalyzer(t *testing.T, workers int, opts ...stablerank.Option) *stablerank.Analyzer {
	t.Helper()
	a, err := stablerank.New(parallelTestDataset(), append([]stablerank.Option{
		stablerank.WithCone([]float64{1, 1, 1}, 0.3),
		stablerank.WithSeed(17),
		stablerank.WithSampleCount(30_000),
		stablerank.WithWorkers(workers),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWorkerCountDeterminism: for the same seed, worker counts 1, 2, 3 and 8
// must produce IDENTICAL answers — not statistically close, bit-equal — on
// every path that shards the sample pool across workers: the pool build,
// the fused verify/item-rank sweep, the adaptive verify sweep and the
// LastDrift score pass. The pool is drawn in fixed chunks seeded by chunk
// index, never by worker, and every sweep merges exact integer counts or
// per-chunk partials in chunk order.
func TestWorkerCountDeterminism(t *testing.T) {
	ds := parallelTestDataset()
	ranking := stablerank.RankingOf(ds, []float64{1, 1, 1})
	cases := []struct {
		name string
		opts []stablerank.Option
		run  func(t *testing.T, a *stablerank.Analyzer) any
	}{
		{"verify and toph", nil, func(t *testing.T, a *stablerank.Analyzer) any {
			v, err := a.VerifyStability(ctx, ranking)
			if err != nil {
				t.Fatal(err)
			}
			topH, err := a.TopH(ctx, 5)
			if err != nil {
				t.Fatal(err)
			}
			if a.PoolBuildDuration() <= 0 {
				t.Errorf("PoolBuildDuration = %v, want > 0", a.PoolBuildDuration())
			}
			return []any{v, topH}
		}},
		{"adaptive verify", []stablerank.Option{stablerank.WithAdaptive(0.0009)}, func(t *testing.T, a *stablerank.Analyzer) any {
			v, err := a.VerifyStability(ctx, ranking)
			if err != nil {
				t.Fatal(err)
			}
			// An early stop after the first doubling step (which sweeps two
			// pool chunks) puts sharded counts behind the answer.
			if !v.Adaptive || v.SampleCount < 3*mc.PoolChunk || v.SampleCount >= 30_000 {
				t.Errorf("adaptive verify stopped at %d rows (adaptive %v), want an early stop past %d", v.SampleCount, v.Adaptive, 3*mc.PoolChunk)
			}
			return v
		}},
		{"pool-sized itemrank", nil, func(t *testing.T, a *stablerank.Analyzer) any {
			res, err := a.Do(ctx,
				stablerank.VerifyQuery{Ranking: ranking},
				stablerank.ItemRankQuery{Item: 3},
				stablerank.ItemRankQuery{Item: 5, Samples: 10_000},
			)
			if err != nil {
				t.Fatal(err)
			}
			if a.Sweeps() != 1 {
				t.Errorf("%d sweeps, want the one fused sweep", a.Sweeps())
			}
			for i, r := range res {
				if r.Err != nil {
					t.Fatalf("result %d: %v", i, r.Err)
				}
			}
			return []any{*res[0].Verification, *res[1].RankDistribution, *res[2].RankDistribution}
		}},
		{"drift", nil, func(t *testing.T, a *stablerank.Analyzer) any {
			if err := a.Warm(ctx); err != nil {
				t.Fatal(err)
			}
			next, err := a.ApplyDelta(ctx,
				stablerank.Delta{Op: stablerank.AttrUpdate, ID: ds.Item(0).ID, Attrs: []float64{0.5, 0.5, 0.5}},
				stablerank.Delta{Op: stablerank.ItemAdd, ID: "added", Attrs: []float64{0.9, 0.1, 0.4}},
				stablerank.Delta{Op: stablerank.ItemRemove, ID: ds.Item(1).ID},
			)
			if err != nil {
				t.Fatal(err)
			}
			drift, err := next.LastDrift(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(drift) != 3 || drift[0].PoolRows != 30_000 {
				t.Fatalf("drift = %+v, want 3 deltas priced over the 30000-row pool", drift)
			}
			return drift
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var base any
			for i, workers := range []int{1, 2, 3, 8} {
				a := parallelTestAnalyzer(t, workers, tc.opts...)
				if a.Workers() != workers {
					t.Errorf("Workers() = %d, want %d", a.Workers(), workers)
				}
				got := tc.run(t, a)
				if i == 0 {
					base = got
					continue
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("workers=%d:\n%+v\nworkers=1 gave\n%+v", workers, got, base)
				}
			}
		})
	}
}

func TestWithWorkersValidation(t *testing.T) {
	if _, err := stablerank.New(parallelTestDataset(), stablerank.WithWorkers(-1)); err == nil {
		t.Error("WithWorkers(-1) accepted")
	}
	a, err := stablerank.New(parallelTestDataset(), stablerank.WithWorkers(0))
	if err != nil {
		t.Fatal(err)
	}
	if a.Workers() < 1 {
		t.Errorf("Workers() with default = %d, want >= 1 (GOMAXPROCS)", a.Workers())
	}
}

// TestVerifyBatchMatchesSingleCalls: a Do call verifying several rankings in
// one fused sweep returns exactly what per-ranking VerifyStability calls
// return over the same pool.
func TestVerifyBatchMatchesSingleCalls(t *testing.T) {
	ds := parallelTestDataset()
	a := parallelTestAnalyzer(t, 4)
	weights := [][]float64{{1, 1, 1}, {1.2, 1, 0.9}, {0.9, 1.1, 1}}
	queries := make([]stablerank.Query, len(weights))
	for i, w := range weights {
		queries[i] = stablerank.VerifyQuery{Ranking: stablerank.RankingOf(ds, w)}
	}
	batch, err := a.Do(ctx, queries...)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, err := a.VerifyStability(ctx, q.(stablerank.VerifyQuery).Ranking)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].Err != nil {
			t.Fatalf("batch[%d]: unexpected error %v", i, batch[i].Err)
		}
		if got := batch[i].Verification; got.Stability != single.Stability || got.ConfidenceError != single.ConfidenceError {
			t.Errorf("batch[%d]: %v±%v vs single %v±%v",
				i, got.Stability, got.ConfidenceError, single.Stability, single.ConfidenceError)
		}
	}
	if a.PoolBuilds() != 1 {
		t.Errorf("pool built %d times across batch + singles, want 1", a.PoolBuilds())
	}
}

// TestTopHBatchPrefixes: one Do call's single enumeration serves every
// requested h as a prefix of the longest answer; h <= 0 yields none.
func TestTopHBatchPrefixes(t *testing.T) {
	a := parallelTestAnalyzer(t, 2)
	res, err := a.Do(ctx, stablerank.TopHQuery{H: 2}, stablerank.TopHQuery{H: 5}, stablerank.TopHQuery{H: 0}, stablerank.TopHQuery{H: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("%d results, want 4", len(res))
	}
	short, long := res[0].Stables, res[1].Stables
	if len(short) > 2 || len(res[2].Stables) != 0 || len(res[3].Stables) != 0 {
		t.Fatalf("result sizes %d/%d/%d/%d", len(short), len(long), len(res[2].Stables), len(res[3].Stables))
	}
	for i := range short {
		if !short[i].Ranking.Equal(long[i].Ranking) {
			t.Errorf("h=2 answer is not a prefix of h=5 at %d", i)
		}
	}
}

// TestConcurrentBatchQueries hammers one shared Analyzer with concurrent
// multi-query Do calls — verify batches and top-h batches — under the race
// detector (CI runs the suite under -race): all goroutines must coalesce
// onto one pool build and observe identical results.
func TestConcurrentBatchQueries(t *testing.T) {
	ds := parallelTestDataset()
	a := parallelTestAnalyzer(t, 4)
	verifies := []stablerank.Query{
		stablerank.VerifyQuery{Ranking: stablerank.RankingOf(ds, []float64{1, 1, 1})},
		stablerank.VerifyQuery{Ranking: stablerank.RankingOf(ds, []float64{1.1, 0.9, 1})},
	}
	topHs := []stablerank.Query{stablerank.TopHQuery{H: 3}, stablerank.TopHQuery{H: 1}}
	const goroutines = 16
	results := make([][]stablerank.Result, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				results[g], errs[g] = a.Do(context.Background(), verifies...)
			} else {
				results[g], errs[g] = a.Do(context.Background(), topHs...)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := a.PoolBuilds(); got != 1 {
		t.Errorf("pool built %d times under concurrency, want 1", got)
	}
	for g := 2; g < goroutines; g += 2 {
		for i := range verifies {
			if got, want := results[g][i].Verification.Stability, results[0][i].Verification.Stability; got != want {
				t.Errorf("goroutine %d verify[%d] = %v, goroutine 0 saw %v", g, i, got, want)
			}
		}
	}
	for g := 3; g < goroutines; g += 2 {
		got, want := results[g][0].Stables, results[1][0].Stables
		if len(got) != len(want) {
			t.Fatalf("goroutine %d topH size %d, goroutine 1 saw %d", g, len(got), len(want))
		}
		for i := range got {
			if got[i].Stability != want[i].Stability {
				t.Errorf("goroutine %d topH[%d] stability differs", g, i)
			}
		}
	}
}
