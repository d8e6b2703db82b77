// Diamonds scenario: top-k shopping over a Blue Nile-style catalog
// (Section 6.3's workhorse dataset, simulated by stablerank.Diamonds because
// the real catalog is not redistributable).
//
// With 100k+ items and five attributes, complete rankings are both
// intractable (the arrangement has up to O(n^{2d}) cells) and uninteresting
// — a shopper cares about the top of the list. This program runs the
// randomized GET-NEXTr (Section 4.3) under both top-k semantics:
//
//   - top-k sets: which k diamonds appear, regardless of order;
//   - ranked top-k: the exact ordered prefix;
//
// and contrasts the most stable top-k set with the skyline, illustrating the
// Section 2.2.5 observation that stable top-k items need not be skyline
// points.
//
// Run with: go run ./examples/diamonds [-n 20000] [-k 10]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"

	"stablerank"
)

func main() {
	log.SetFlags(0)
	n := flag.Int("n", 20000, "catalog size")
	k := flag.Int("k", 10, "top-k size")
	h := flag.Int("h", 5, "stable top-k results to enumerate")
	seed := flag.Int64("seed", 9, "simulation seed")
	flag.Parse()
	ctx := context.Background()

	ds := stablerank.Diamonds(rand.New(rand.NewSource(*seed)), *n)
	equal := []float64{1, 1, 1, 1, 1}

	// Region of interest: theta = pi/50 around equal weights, the default
	// setting of the paper's randomized experiments.
	a, err := stablerank.New(ds, stablerank.WithCone(equal, math.Pi/50), stablerank.WithSeed(*seed))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Simulated Blue Nile catalog: n=%d diamonds, d=5 "+
		"(cheapness, carat, depth, l/w ratio, table)\n", *n)
	fmt.Printf("Region of interest: theta=pi/50 around equal weights; k=%d\n\n", *k)

	for _, mode := range []stablerank.Mode{stablerank.TopKSet, stablerank.TopKRanked} {
		r, err := a.Randomized(mode, *k)
		if err != nil {
			log.Fatal(err)
		}
		results, err := r.TopH(ctx, *h, 5000, 1000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Most stable %s results:\n", mode)
		for i, res := range results {
			fmt.Printf("  %d. stability %.4f ± %.4f\n", i+1, res.Stability, res.ConfidenceError)
		}
		if len(results) > 0 && mode == stablerank.TopKSet {
			compareWithSkyline(ds, results[0].Items)
		}
		fmt.Println()
	}
}

// compareWithSkyline reports how much of the most stable top-k set lies on
// the skyline.
func compareWithSkyline(ds interface {
	Skyline() []int
	N() int
}, top []int) {
	sky := ds.Skyline()
	inSky := make(map[int]bool, len(sky))
	for _, i := range sky {
		inSky[i] = true
	}
	overlap := 0
	for _, i := range top {
		if inSky[i] {
			overlap++
		}
	}
	fmt.Printf("  skyline size %d; most stable top-%d shares %d items with it\n",
		len(sky), len(top), overlap)
}
