package plan

import (
	"context"

	"stablerank/internal/geom"
	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/vecmat"
)

// The fused sweep: one mc.Sweep pass over the Monte-Carlo sample pool that
// answers every verify AND item-rank query in the batch: within each pool
// chunk, every live ranking's flat constraint matrix counts its members with
// the vecmat kernel, and every item-rank query accumulates the item's rank
// for each sample row. Counts are exact integer sums, so results are
// bit-identical for every worker count.

// fusedItem is one pool-resident item-rank query: the outcome index, the
// dataset item, and how many leading pool rows it consumes.
type fusedItem struct {
	qi, item, n int
}

// fusedSweep walks the pool once, feeding every verify constraint matrix and
// every fused item-rank accumulator, sharded across env.Workers. Per-ranking
// failures (infeasibility, shape mismatches) land in the matching
// Outcome.Err without failing the sweep; only cancellation fails the call.
func fusedSweep(ctx context.Context, env *Env, pool vecmat.Matrix, queries []Query, verifyIdx []int, items []fusedItem, out []Outcome) error {
	type liveVerify struct {
		qi   int
		cons vecmat.Matrix
	}
	live := make([]liveVerify, 0, len(verifyIdx))
	for _, i := range verifyIdx {
		q := queries[i].(VerifyQuery)
		m, constraints, err := md.ConstraintMatrix(env.DS, q.Ranking)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Verify = &Verification{Constraints: constraints, SampleCount: pool.Rows()}
		live = append(live, liveVerify{qi: i, cons: m})
	}
	if len(live)+len(items) == 0 {
		return nil
	}
	// Concatenate every live ranking's constraints into one flat matrix so a
	// pool chunk is streamed once for the whole batch (matrix-matrix sweep)
	// instead of once per ranking; per-group early exit keeps the counts
	// bit-identical to per-ranking CountInside sweeps.
	grouped, starts := concatLive(env, live, func(v *liveVerify) vecmat.Matrix { return v.cons })
	var attrs vecmat.Matrix
	if len(items) > 0 {
		attrs = vecmat.New(env.DS.N(), env.DS.D())
		for i := 0; i < env.DS.N(); i++ {
			attrs.SetRow(i, env.DS.Attrs(i))
		}
	}
	if env.OnSweep != nil {
		env.OnSweep()
	}

	// Per-worker accumulators, merged after the sweep: one membership count
	// per live verify, one dense rank histogram (1..N) per item query.
	workers := mc.SweepWorkers(pool.Rows(), env.Workers)
	verifyCounts := make([][]int, workers)
	rankCounts := make([][][]int, workers)
	for w := range workers {
		verifyCounts[w] = make([]int, len(live))
		rankCounts[w] = make([][]int, len(items))
		for k := range items {
			rankCounts[w][k] = make([]int, env.DS.N()+1)
		}
	}
	err := mc.Sweep(ctx, pool.Rows(), env.Workers, func(w, _, lo, hi int) error {
		// Sample-major within the chunk: each sample row is hoisted into
		// registers once and streamed against the concatenated constraint
		// matrix of every live ranking.
		vecmat.CountInsideGrouped(grouped, starts, pool, lo, hi, verifyCounts[w])
		for k, it := range items {
			rc := rankCounts[w][k]
			for row, rows := lo, min(hi, it.n); row < rows; row++ {
				rc[mc.RankOf(attrs, geom.Vector(pool.Row(row)), it.item)]++
			}
		}
		return nil
	})
	if err != nil {
		// Clear the partially filled verify outcomes so a failed call leaves
		// no half-answered queries behind.
		for _, v := range live {
			out[v.qi].Verify = nil
		}
		return err
	}

	for li, v := range live {
		total := 0
		for w := range verifyCounts {
			total += verifyCounts[w][li]
		}
		o := out[v.qi].Verify
		o.Stability = float64(total) / float64(pool.Rows())
		if env.Confidence != nil {
			o.ConfidenceError = env.Confidence(o.Stability, pool.Rows())
		}
	}
	for k, it := range items {
		dist := &mc.RankDistribution{
			Item:    it.item,
			Counts:  make(map[int]int),
			Samples: it.n,
			Best:    env.DS.N() + 1,
		}
		for r := 1; r <= env.DS.N(); r++ {
			c := 0
			for w := range rankCounts {
				c += rankCounts[w][k][r]
			}
			if c == 0 {
				continue
			}
			dist.Counts[r] = c
			if r < dist.Best {
				dist.Best = r
			}
			if r > dist.Worst {
				dist.Worst = r
			}
		}
		out[it.qi].ItemRank = dist
	}
	return nil
}
