package plan

import (
	"context"

	"stablerank/internal/mc"
	"stablerank/internal/md"
	"stablerank/internal/vecmat"
)

// Adaptive verification: instead of always consuming the entire sample pool,
// sweep it in growing chunks and stop each verify query as soon as the
// confidence half-width of its running estimate (Equation 10 over the rows
// seen so far) reaches the caller's target. The pool rows are an iid draw,
// so any prefix is itself an unbiased sample and the prefix estimate carries
// the usual CLT guarantee at its own sample size.
//
// Determinism: chunk boundaries depend only on the pool size — never on the
// worker count — and each chunk accumulates exact integer counts, so the
// stopping row and the reported estimate are identical for every worker
// count at a fixed seed. A query that never clears its target consumes the
// whole pool and reports exactly the full-sweep answer (Adaptive = false).

const (
	// adaptiveChunkMin is the first chunk size: the smallest prefix on which
	// a confidence interval is ever consulted, and the floor on rows any
	// adaptive answer is based on.
	adaptiveChunkMin = mc.PoolChunk
	// adaptiveChunkMax caps the doubling chunk schedule so stopping
	// opportunities keep a bounded spacing on large pools.
	adaptiveChunkMax = 16 * mc.PoolChunk
)

// adaptiveSweep answers the verify queries with early stopping. It mirrors
// fusedSweep's failure contract: per-ranking infeasibility lands in the
// matching Outcome.Err, and only cancellation fails the call (clearing every
// partial verify outcome).
func adaptiveSweep(ctx context.Context, env *Env, pool vecmat.Matrix, queries []Query, verifyIdx []int, out []Outcome) error {
	type liveVerify struct {
		qi    int
		cons  vecmat.Matrix
		count int
	}
	live := make([]liveVerify, 0, len(verifyIdx))
	for _, i := range verifyIdx {
		q := queries[i].(VerifyQuery)
		m, constraints, err := md.ConstraintMatrix(env.DS, q.Ranking)
		if err != nil {
			out[i].Err = err
			continue
		}
		out[i].Verify = &Verification{Constraints: constraints}
		live = append(live, liveVerify{qi: i, cons: m})
	}
	if len(live) == 0 {
		return nil
	}
	if env.OnSweep != nil {
		env.OnSweep()
	}
	rows := pool.Rows()
	grouped, starts := concatLive(env, live, func(v *liveVerify) vecmat.Matrix { return v.cons })
	counts := make([]int, len(live))
	pos, chunk := 0, adaptiveChunkMin
	for pos < rows && len(live) > 0 {
		hi := min(pos+chunk, rows)
		if err := countChunkGrouped(ctx, grouped, starts, pool, pos, hi, env.Workers, counts); err != nil {
			for _, i := range verifyIdx {
				out[i].Verify = nil
			}
			return err
		}
		pos = hi
		if chunk < adaptiveChunkMax {
			chunk *= 2
		}

		// Consult the confidence interval at the fixed chunk boundary and
		// retire every query whose half-width has reached the target.
		survivors := live[:0]
		done := false
		for li := range live {
			v := live[li]
			v.count = counts[li]
			est := float64(v.count) / float64(pos)
			ci := env.Confidence(est, pos)
			if ci <= env.AdaptiveError && pos < rows {
				o := out[v.qi].Verify
				o.Stability = est
				o.ConfidenceError = ci
				o.SampleCount = pos
				o.Adaptive = true
				if env.OnAdaptiveStop != nil {
					env.OnAdaptiveStop(pos, rows)
				}
				done = true
				continue
			}
			survivors = append(survivors, v)
		}
		live = survivors
		if done && len(live) > 0 {
			// Compact the concatenated constraint matrix to the survivors so
			// retired queries stop costing dot products.
			grouped, starts = concatLive(env, live, func(v *liveVerify) vecmat.Matrix { return v.cons })
			counts = counts[:len(live)]
			for li := range live {
				counts[li] = live[li].count
			}
		}
	}
	// Whatever is still live consumed the entire pool: report exactly the
	// full-sweep answer.
	for li := range live {
		v := live[li]
		est := float64(counts[li]) / float64(rows)
		o := out[v.qi].Verify
		o.Stability = est
		o.ConfidenceError = env.Confidence(est, rows)
		o.SampleCount = rows
	}
	return nil
}

// concatLive rebuilds the concatenated constraint matrix for the surviving
// live set.
func concatLive[T any](env *Env, live []T, cons func(*T) vecmat.Matrix) (vecmat.Matrix, []int) {
	mats := make([]vecmat.Matrix, len(live))
	for i := range live {
		mats[i] = cons(&live[i])
	}
	return vecmat.ConcatGroups(env.DS.D(), mats)
}

// countChunkGrouped accumulates grouped membership counts for pool rows
// [lo, hi) into counts, sharding the rows with mc.Sweep. Each worker sums
// into its own integer counts, merged afterwards, so the result is identical
// for every worker count. lo is a multiple of mc.PoolChunk on the adaptive
// schedule, so the shards are pool chunks.
func countChunkGrouped(ctx context.Context, grouped vecmat.Matrix, starts []int, pool vecmat.Matrix, lo, hi, workers int, counts []int) error {
	part := make([][]int, mc.SweepWorkers(hi-lo, workers))
	for w := range part {
		part[w] = make([]int, len(counts))
	}
	err := mc.Sweep(ctx, hi-lo, workers, func(w, _, clo, chi int) error {
		vecmat.CountInsideGrouped(grouped, starts, pool, lo+clo, lo+chi, part[w])
		return nil
	})
	if err != nil {
		return err
	}
	for _, local := range part {
		for i, c := range local {
			counts[i] += c
		}
	}
	return nil
}
