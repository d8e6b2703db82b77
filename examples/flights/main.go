// Flights scenario: the Department of Transportation scalability test of
// Figure 18, on simulated on-time records (the real records are not
// redistributable; stablerank.Flights reproduces their statistical shape).
//
// The paper scales the randomized top-k operator to 1M flights over
// air-time, taxi-in and taxi-out. This program sweeps the catalog size,
// timing the first GET-NEXTr call (5,000 samples) and subsequent calls
// (1,000 samples each) and reporting the stability of the most stable
// top-k set — demonstrating that running time grows linearly in n while
// top-k stability stays roughly flat (Figures 16 and 18).
//
// Run with: go run ./examples/flights [-max 1000000]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"time"

	"stablerank"
)

func main() {
	log.SetFlags(0)
	maxN := flag.Int("max", 1_000_000, "largest catalog size")
	k := flag.Int("k", 10, "top-k size")
	seed := flag.Int64("seed", 13, "simulation seed")
	flag.Parse()
	// The 1M tier takes a while; Ctrl-C cancels cleanly mid-sweep.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("Simulated DoT on-time data, d=3, k=%d, theta=pi/50, top-k sets\n", *k)
	fmt.Printf("%12s %14s %14s %12s\n", "n", "first call", "next call", "stability")

	for n := 10_000; n <= *maxN; n *= 10 {
		ds := stablerank.Flights(rand.New(rand.NewSource(*seed)), n)
		a, err := stablerank.New(ds,
			stablerank.WithCone([]float64{1, 1, 1}, math.Pi/50),
			stablerank.WithSeed(*seed),
		)
		if err != nil {
			log.Fatal(err)
		}
		r, err := a.Randomized(stablerank.TopKSet, *k)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		first, err := r.NextFixedBudget(ctx, 5000)
		if err != nil {
			log.Fatal(err)
		}
		firstDur := time.Since(start)
		start = time.Now()
		if _, err := r.NextFixedBudget(ctx, 1000); err != nil {
			log.Fatal(err)
		}
		nextDur := time.Since(start)
		fmt.Printf("%12d %14s %14s %12.4f\n", n, firstDur.Round(time.Millisecond),
			nextDur.Round(time.Millisecond), first.Stability)
	}
}
