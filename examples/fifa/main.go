// FIFA scenario: the second half of Section 6.2, on a simulated FIFA men's
// ranking table (the real table is not redistributable; stablerank.FIFA
// reproduces its statistical shape).
//
// FIFA scores team t as t1 + 0.5 t2 + 0.3 t3 + 0.2 t4 over four years of
// performance and uses the result to seed World Cup draws. With d = 4 the
// exact 2D machinery does not apply; this program runs the
// multi-dimensional GET-NEXT (delayed arrangement construction over an
// unbiased sample of the region of interest) within 0.999 cosine similarity
// of the FIFA weights, reproducing the paper's findings that
//
//   - many distinct rankings fit even in this narrow region, with a sharp
//     stability drop after the most stable ones (Figure 9), and
//   - the reference ranking does not appear among the top-100 stable
//     rankings, with concrete team swaps between it and the most stable one
//     (the paper's Tunisia/Mexico example).
//
// Run with: go run ./examples/fifa [-n 100] [-h 20] [-samples 10000]
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
	n := flag.Int("n", 100, "number of teams")
	h := flag.Int("h", 20, "stable rankings to enumerate")
	samples := flag.Int("samples", 10000, "Monte-Carlo samples in the region of interest")
	seed := flag.Int64("seed", 7, "simulation seed")
	flag.Parse()
	ctx := context.Background()

	ds := stablerank.FIFA(rand.New(rand.NewSource(*seed)), *n)
	ref := stablerank.FIFAReferenceWeights()
	reference := stablerank.RankingOf(ds, ref)

	a, err := stablerank.New(ds,
		stablerank.WithCosineSimilarity(ref, 0.999),
		stablerank.WithSampleCount(*samples),
		stablerank.WithSeed(*seed),
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Simulated FIFA table, n=%d teams, d=4, region: cos >= 0.999 around (1, .5, .3, .2)\n", *n)

	// The unified query API: verify the reference ranking through Do, then
	// stream the top-h enumeration incrementally (both share the analyzer's
	// single Monte-Carlo sample pool).
	verifyRes, err := a.Do(ctx, stablerank.VerifyQuery{Ranking: reference})
	if err != nil {
		log.Fatal(err)
	}
	if verifyRes[0].Err != nil {
		log.Fatal(verifyRes[0].Err)
	}
	refV := verifyRes[0].Verification
	fmt.Printf("Reference ranking stability in the region: %.5f ± %.5f\n",
		refV.Stability, refV.ConfidenceError)

	fmt.Printf("\nTop-%d stable rankings (GET-NEXTmd):\n", *h)
	var results []stablerank.Stable
	refSeen := false
	for res, err := range a.Stream(ctx, stablerank.TopHQuery{H: *h}) {
		if err != nil {
			log.Fatal(err)
		}
		s := *res.Stable
		if s.Ranking.Equal(reference) {
			refSeen = true
		}
		results = append(results, s)
		fmt.Printf("  %3d. stability %.5f\n", len(results), s.Stability)
	}
	if len(results) == 0 {
		log.Fatal("no rankings found; increase -samples")
	}
	if refSeen {
		fmt.Printf("\nThe reference ranking IS among the top-%d stable rankings.\n", *h)
	} else {
		fmt.Printf("\nThe reference ranking is NOT among the top-%d stable rankings "+
			"(the paper's central finding for FIFA).\n", *h)
	}

	// Team swaps between the reference and the most stable ranking.
	best := results[0].Ranking
	tau, err := stablerank.KendallTau(reference, best)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Kendall-tau distance reference vs most stable: %d discordant pairs\n", tau)
	fmt.Println("Adjacent swaps in the top 15:")
	for pos := 0; pos < 15 && pos+1 < ds.N(); pos++ {
		refTeam := reference.Order[pos]
		bestTeam := best.Order[pos]
		if refTeam != bestTeam {
			fmt.Printf("  position %2d: %s (reference) vs %s (most stable)\n",
				pos+1, ds.Item(refTeam).ID, ds.Item(bestTeam).ID)
		}
	}
}
