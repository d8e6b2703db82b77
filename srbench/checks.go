package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"stablerank"
	"stablerank/internal/geom"
	"stablerank/internal/md"
	"stablerank/internal/rank"
	"stablerank/internal/sampling"
)

// Wire shapes of the stablerankd answers the checks read.

type itemRef struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
}

type stableJSON struct {
	Rank            int       `json:"rank"`
	Stability       float64   `json:"stability"`
	Exact           bool      `json:"exact"`
	Items           []itemRef `json:"items"`
	Weights         []float64 `json:"weights"`
	ConfidenceError float64   `json:"confidence_error"`
}

type verifyJSON struct {
	Ranking         []itemRef `json:"ranking"`
	Stability       float64   `json:"stability"`
	ConfidenceError float64   `json:"confidence_error"`
	Exact           bool      `json:"exact"`
	SampleCount     int       `json:"sample_count"`
}

type opResultJSON struct {
	Op              string       `json:"op"`
	Error           string       `json:"error"`
	Ranking         []itemRef    `json:"ranking"`
	Stability       *float64     `json:"stability"`
	ConfidenceError *float64     `json:"confidence_error"`
	SampleCount     int          `json:"sample_count"`
	Adaptive        bool         `json:"adaptive"`
	Rankings        []stableJSON `json:"rankings"`
}

type queryJSON struct {
	Results []opResultJSON `json:"results"`
}

type topHJSON struct {
	Rankings []stableJSON `json:"rankings"`
}

type pageJSON struct {
	Page    int          `json:"page"`
	PerPage int          `json:"per_page"`
	Results []stableJSON `json:"results"`
}

// checkEnumeration holds for every enumeration answer: stabilities in
// [0,1], non-increasing, summing to at most 1, ranked from firstRank on.
func checkEnumeration(rs []stableJSON, firstRank int) error {
	sum := 0.0
	for i, r := range rs {
		if !(r.Stability >= 0 && r.Stability <= 1) {
			return fmt.Errorf("ranking %d: stability %v outside [0,1]", i, r.Stability)
		}
		if i > 0 && r.Stability > rs[i-1].Stability {
			return fmt.Errorf("ranking %d: stability %v above its predecessor's %v", i, r.Stability, rs[i-1].Stability)
		}
		if r.Rank != firstRank+i {
			return fmt.Errorf("ranking %d: rank %d, want %d", i, r.Rank, firstRank+i)
		}
		sum += r.Stability
	}
	if sum > 1+1e-9 {
		return fmt.Errorf("stabilities sum to %v > 1", sum)
	}
	return nil
}

// checkVerify3D compares a Monte-Carlo full-space stability over n samples
// with the exact 3D spherical-polygon answer. The tolerance is five standard
// errors (2.5x the 95% bound of Eq. 10) plus three samples' worth, so a
// correct estimator essentially never fails it.
func checkVerify3D(ds *stablerank.Dataset, w []float64, got float64, n int) error {
	exact, err := md.VerifyExact3D(ds, stablerank.RankingOf(ds, w))
	if err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("sample count %d", n)
	}
	tol := 5*math.Sqrt(exact*(1-exact)/float64(n)) + 3/float64(n)
	if math.Abs(got-exact) > tol {
		return fmt.Errorf("stability %v, exact 3D %v (tolerance %v)", got, exact, tol)
	}
	return nil
}

// grid2D is the number of angles in the brute-force 2D oracle.
const grid2D = 5000

// gridFraction is the share of grid2D evenly spaced angles of iv at which
// ds ranks exactly as order does: the brute-force 2D stability.
func gridFraction(ds *stablerank.Dataset, iv geom.Interval2D, order []int) float64 {
	hits := 0
	for j := 0; j < grid2D; j++ {
		w := geom.Ray2D(iv.Lo + (float64(j)+0.5)*(iv.Hi-iv.Lo)/grid2D)
		ok := true
		for i := 0; i+1 < len(order) && ok; i++ {
			ok = ds.Score(w, order[i]) >= ds.Score(w, order[i+1])
		}
		if ok {
			hits++
		}
	}
	return float64(hits) / grid2D
}

// check2D checks one exact 2D answer: the ranking it names is the one
// brute-force scoring gives at its weights, and its stability matches the
// angle-grid fraction to within the grid's resolution.
func check2D(ds *stablerank.Dataset, iv geom.Interval2D, w []float64, items []itemRef, stability float64) error {
	r := stablerank.RankingOf(ds, w)
	for i, it := range items {
		if r.Order[i] != it.Index {
			return fmt.Errorf("position %d holds item %d, brute-force ranking at the weights has %d", i, it.Index, r.Order[i])
		}
	}
	if f := gridFraction(ds, iv, r.Order); math.Abs(f-stability) > 2.0/grid2D {
		return fmt.Errorf("stability %v, angle-grid fraction %v", stability, f)
	}
	return nil
}

// check2DTop checks that no ranking on a coarse angle grid is more stable
// than the reported most stable one.
func check2DTop(ds *stablerank.Dataset, iv geom.Interval2D, top float64) error {
	const g = 2000
	counts := make(map[string]int)
	best := 0
	for j := 0; j < g; j++ {
		w := geom.Ray2D(iv.Lo + (float64(j)+0.5)*(iv.Hi-iv.Lo)/g)
		k := stablerank.RankingOf(ds, w).Key()
		counts[k]++
		best = max(best, counts[k])
	}
	if f := float64(best) / g; f > top+2.0/g {
		return fmt.Errorf("brute force finds a ranking with stability %v above the reported top %v", f, top)
	}
	return nil
}

// randSpec is one randomized top-k call.
type randSpec struct {
	axis   []float64
	cosine float64
	seed   int64
	mode   stablerank.Mode
}

// randAnswer is the rendered answer of one randomized top-k call.
type randAnswer struct {
	Results []stablerank.RandomizedResult
	Total   int
}

// checkRandomized compares each reported top-k result with a brute-force
// estimate from samples drawn with another seed. The tolerance is 2.5x the
// sum of both 95% confidence half-widths plus three samples' worth.
func checkRandomized(ds *stablerank.Dataset, spec randSpec, k, samples int, ans randAnswer) error {
	a, err := stablerank.New(ds, stablerank.WithCosineSimilarity(spec.axis, spec.cosine))
	if err != nil {
		return err
	}
	s, err := sampling.ForRegion(a.Region(), rand.New(rand.NewSource(spec.seed+1_000_003)))
	if err != nil {
		return err
	}
	c := rank.NewComputer(ds)
	counts := make(map[string]int)
	for i := 0; i < samples; i++ {
		w, err := s.Sample()
		if err != nil {
			return err
		}
		counts[topKey(c.TopKSelect(w, k), spec.mode)]++
	}
	for i, r := range ans.Results {
		p := float64(counts[topKey(r.Items, spec.mode)]) / float64(samples)
		tol := 2.5*(r.ConfidenceError+1.96*math.Sqrt(p*(1-p)/float64(samples))) + 3/float64(samples) + 3/float64(r.TotalSamples)
		if math.Abs(p-r.Stability) > tol {
			return fmt.Errorf("result %d: stability %v, brute force %v (tolerance %v)", i, r.Stability, p, tol)
		}
	}
	return nil
}

func topKey(items []int, mode stablerank.Mode) string {
	if mode == stablerank.TopKSet {
		items = slices.Sorted(slices.Values(items))
	}
	return fmt.Sprint(items)
}

func decode(body []byte, v any) error {
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("decoding answer: %w", err)
	}
	return nil
}
