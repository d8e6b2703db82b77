// CSMetrics scenario: the paper's Example 1 and the first half of
// Section 6.2, on a simulated CSMetrics crawl (the real crawl is not
// redistributable; stablerank.CSMetrics reproduces its statistical shape).
//
// CSMetrics scores research institutions by (M^alpha)(P^(1-alpha)) over
// measured and predicted citations, linearized to alpha*log(M) +
// (1-alpha)*log(P) with the site default alpha = 0.3. The program
//
//  1. enumerates every feasible ranking of the top-100 institutions with its
//     exact stability and locates the published (reference) ranking in that
//     distribution (the paper finds it at position 108 of 336 with stability
//     0.0032, matching the uniform baseline);
//  2. reports the most stable ranking and the headline item moves between it
//     and the reference;
//  3. repeats the enumeration within 0.998 cosine similarity of the
//     reference weights (the paper finds 22 rankings there).
//
// Run with: go run ./examples/csmetrics [-n 100] [-seed 42]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"stablerank"
)

func main() {
	log.SetFlags(0)
	n := flag.Int("n", 100, "number of institutions")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()
	ctx := context.Background()

	ds := stablerank.CSMetrics(rand.New(rand.NewSource(*seed)), *n)
	ref := stablerank.CSMetricsReferenceWeights()
	reference := stablerank.RankingOf(ds, ref)

	a, err := stablerank.New(ds)
	if err != nil {
		log.Fatal(err)
	}

	// Full enumeration over U (exact in 2D), streamed through the unified
	// query API.
	var all []stablerank.Stable
	refPos := -1
	for res, err := range a.Stream(ctx, stablerank.EnumerateQuery{}) {
		if err != nil {
			log.Fatal(err)
		}
		if res.Stable.Ranking.Equal(reference) {
			refPos = len(all) + 1
		}
		all = append(all, *res.Stable)
	}

	fmt.Printf("Simulated CSMetrics, n=%d institutions, alpha=0.3 reference weights (%.1f, %.1f)\n",
		*n, ref[0], ref[1])
	fmt.Printf("Feasible rankings over the whole weight space: %d\n", len(all))
	fmt.Printf("Uniform baseline stability (1/#rankings):      %.4f\n", 1/float64(len(all)))

	refRes, err := a.Do(ctx, stablerank.VerifyQuery{Ranking: reference})
	if err != nil {
		log.Fatal(err)
	}
	if refRes[0].Err != nil {
		log.Fatal(refRes[0].Err)
	}
	refV := refRes[0].Verification
	fmt.Printf("Reference ranking stability:                   %.4f (exact)\n", refV.Stability)
	fmt.Printf("Reference ranking stability position:          %d of %d\n", refPos, len(all))
	fmt.Printf("Most stable ranking stability:                 %.4f (%.1fx the reference)\n",
		all[0].Stability, all[0].Stability/refV.Stability)

	// Headline moves between the reference and the most stable ranking, the
	// paper's Cornell/Toronto and Northeastern observations.
	best := all[0].Ranking
	item, delta, err := stablerank.MaxDisplacement(reference, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nLargest rank move when maximizing stability: %s moves %d positions (%d -> %d)\n",
		ds.Item(item).ID, delta, reference.PositionOf(item), best.PositionOf(item))
	fmt.Println("Top 10, reference vs most stable:")
	for i := 0; i < 10 && i < ds.N(); i++ {
		fmt.Printf("  %2d. %-10s | %-10s\n", i+1,
			ds.Item(reference.Order[i]).ID, ds.Item(best.Order[i]).ID)
	}

	// Narrow region of interest: 0.998 cosine similarity around the
	// reference (theta ~ pi/50).
	narrow, err := stablerank.New(ds, stablerank.WithCosineSimilarity(ref, 0.998))
	if err != nil {
		log.Fatal(err)
	}
	// One heterogeneous Do call answers the producer question (every ranking
	// in the region) and the consumer question (the rank distribution of the
	// institution at reference rank 11) against the same analyzer.
	queries := []stablerank.Query{stablerank.EnumerateQuery{}}
	if ds.N() >= 11 {
		queries = append(queries, stablerank.ItemRankQuery{Item: reference.Order[10], Samples: 20000})
	}
	narrowRes, err := narrow.Do(ctx, queries...)
	if err != nil {
		log.Fatal(err)
	}
	if narrowRes[0].Err != nil {
		log.Fatal(narrowRes[0].Err)
	}
	near := narrowRes[0].Stables
	fmt.Printf("\nWithin 0.998 cosine similarity of the reference: %d feasible rankings\n", len(near))
	show := 5
	if len(near) < show {
		show = len(near)
	}
	for i := 0; i < show; i++ {
		marker := ""
		if near[i].Ranking.Equal(reference) {
			marker = "   <- reference"
		}
		fmt.Printf("  %2d. stability %.4f%s\n", i+1, near[i].Stability, marker)
	}
	for i, s := range near {
		if s.Ranking.Equal(reference) {
			fmt.Printf("Reference ranking is the %d-th most stable in this narrow region\n", i+1)
		}
	}

	// Example 1's consumer question, distributionally: the institution at
	// reference rank 11 just misses the top-10 — over all acceptable
	// weights, how often does it make it?
	if len(narrowRes) > 1 {
		if narrowRes[1].Err != nil {
			log.Fatal(narrowRes[1].Err)
		}
		eleventh := reference.Order[10]
		dist := narrowRes[1].RankDistribution
		fmt.Printf("\n%s holds reference rank 11; within the narrow region it ranks %d-%d\n",
			ds.Item(eleventh).ID, dist.Best, dist.Worst)
		fmt.Printf("P(%s in the top-10) = %.3f  (median rank %d)\n",
			ds.Item(eleventh).ID, dist.ProbabilityTopK(10), dist.Quantile(0.5))
	}
}
