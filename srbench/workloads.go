package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"stablerank"
	"stablerank/internal/geom"
	"stablerank/server"
)

// A workload is one traffic mix: its datasets, the server configuration,
// the requests that warm its resident analyzers during set-up, its op
// generator and its end-of-run checks. The open-loop rate is a sixth to a
// third of the closed-loop throughput the seed code reaches on a 2-core
// machine (see README.md).
type workload struct {
	name string
	rate float64 // open-loop ops per second
	reps int     // set-ups per run; setup_s is their median
	// workers is the server's sweep workers per request (0: GOMAXPROCS).
	workers int
	data    func(r *rand.Rand) []namedDS
	// config is nil for the in-process library workload.
	config func(b *bench) server.Config
	warm   func(b *bench) []*Op
	gen    func(b *bench) func(r *rand.Rand) *Op
	final  func(ctx context.Context, b *bench) error
}

type namedDS struct {
	name string
	ds   *stablerank.Dataset
}

// region is a region of interest: a cosine cone around axis, or the whole
// function space when axis is nil.
type region struct {
	axis   []float64
	cosine float64
}

// intent is an op in library terms: what the handler asks the analyzer for
// the request's (dataset, region, seed, samples, adaptive) key.
type intent struct {
	ds       string
	reg      region
	samples  int
	adaptive float64
	qs       []qspec
	// ranking is the verified ranking of a GET verify by item IDs.
	ranking []int
	// cached marks a GET: its handler calls the library only on a cache miss.
	cached bool
	deltas []stablerank.Delta
	rnd    *randSpec
}

// queryReq and qspec are the POST /v1/query body.
type queryReq struct {
	Dataset  string    `json:"dataset"`
	Weights  []float64 `json:"weights,omitempty"`
	Cosine   float64   `json:"cosine,omitempty"`
	Samples  int       `json:"samples"`
	Adaptive float64   `json:"adaptive,omitempty"`
	Queries  []qspec   `json:"queries"`
}

type qspec struct {
	Op      string    `json:"op"`
	Weights []float64 `json:"weights,omitempty"`
	H       int       `json:"h,omitempty"`
	S       float64   `json:"s,omitempty"`
	Limit   int       `json:"limit,omitempty"`
}

func postOp(kind string, q queryReq) *Op {
	body, err := json.Marshal(q)
	if err != nil {
		panic(err) // plain structs of numbers and strings always marshal
	}
	return &Op{Kind: kind, Method: "POST", Path: "/v1/query", Body: body, In: intent{
		ds: q.Dataset, reg: region{axis: q.Weights, cosine: q.Cosine},
		samples: q.Samples, adaptive: q.Adaptive, qs: q.Queries,
	}}
}

// getOp builds GET /v1/{ds}/{op}?{region, samples, extra}.
func getOp(kind, op string, in intent, extra url.Values) *Op {
	v := url.Values{}
	if in.reg.axis != nil {
		v.Set("weights", fmtVec(in.reg.axis))
		v.Set("cosine", fmtNum(in.reg.cosine))
	}
	v.Set("samples", strconv.Itoa(in.samples))
	for k, vs := range extra { //srlint:ordered url.Values.Encode sorts keys
		v[k] = vs
	}
	in.cached = true
	// Commas stay literal: they separate weights and ranking IDs.
	path := fmt.Sprintf("/v1/%s/%s?%s", in.ds, op, strings.ReplaceAll(v.Encode(), "%2C", ","))
	return &Op{Kind: kind, Method: "GET", Path: path, In: in}
}

func fmtNum(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func fmtVec(w []float64) string {
	s := make([]string, len(w))
	for i, x := range w {
		s[i] = fmtNum(x)
	}
	return strings.Join(s, ",")
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// posVec draws a positive weight vector.
func posVec(r *rand.Rand, d int) []float64 {
	w := make([]float64, d)
	for i := range w {
		w[i] = round4(0.05 + 0.95*r.Float64())
	}
	return w
}

// inRegion draws a weight vector inside reg.
func inRegion(r *rand.Rand, reg region, d int) []float64 {
	if reg.axis == nil {
		return posVec(r, d)
	}
	norm := math.Sqrt(dot(reg.axis, reg.axis))
	spread := math.Sqrt(2*(1-reg.cosine)) / math.Sqrt(float64(d))
	for {
		w := make([]float64, d)
		for i := range w {
			w[i] = round4(math.Max(1e-4, reg.axis[i]/norm+spread*r.NormFloat64()))
		}
		if dot(w, reg.axis)/math.Sqrt(dot(w, w))/norm >= reg.cosine {
			return w
		}
	}
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// zipf draws an index in [0, n) with popularity falling off as 1/(i+1)^s.
func zipf(r *rand.Rand, s float64, n int) int {
	return int(rand.NewZipf(r, s, 1, uint64(n-1)).Uint64())
}

// deck deals op kinds in shuffled blocks: every block of len(cards) draws
// holds each kind exactly as often as its count, so a short slice of a run
// sees the workload's mix and not a seed-dependent share of costly ops.
type deck struct {
	cards []int
	pos   int
}

// newDeck returns a deck holding counts[k] cards of kind k.
func newDeck(counts ...int) *deck {
	d := &deck{}
	for k, c := range counts {
		for i := 0; i < c; i++ {
			d.cards = append(d.cards, k)
		}
	}
	return d
}

// draw returns the next kind, shuffling the deck with r at each block start.
func (d *deck) draw(r *rand.Rand) int {
	if d.pos == 0 {
		r.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	k := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return k
}

// interval returns the angle interval of a 2D region.
func interval(ds *stablerank.Dataset, reg region) (geom.Interval2D, error) {
	opts := []stablerank.Option{}
	if reg.axis != nil {
		opts = append(opts, stablerank.WithCosineSimilarity(reg.axis, reg.cosine))
	}
	a, err := stablerank.New(ds, opts...)
	if err != nil {
		return geom.Interval2D{}, err
	}
	return geom.Interval2DOf(a.Region())
}

// warmOp asks for one verify, which builds the key's analyzer and its pool.
func warmOp(ds string, reg region, samples int, adaptive float64, w []float64) *Op {
	q := queryReq{Dataset: ds, Weights: reg.axis, Cosine: reg.cosine, Samples: samples, Adaptive: adaptive,
		Queries: []qspec{{Op: "verify", Weights: w}}}
	return postOp("warm", q)
}

// ---- verify: consumers checking published rankings (Problem 1) ----

const (
	verifyFIFAN = 1000
	// verifyInd3N is small so that full-space stabilities of d=3 rankings
	// are well above 0 and the exact 3D oracle can check them.
	verifyInd3N   = 12
	verifySamples = 100_000
	verifyCatalog = 2048 // 4x the server's 512-entry response cache
	// verifySkew makes most GETs cache hits, so the median op is a hit and
	// not a seed-dependent mix of hits and misses.
	verifySkew     = 1.5
	verifyAdaptive = 0.01
	verifyBatch    = 16
)

// threeRegions returns the full space and two cosine cones of dimension d.
func threeRegions(r *rand.Rand, d int) []region {
	return []region{{}, {axis: posVec(r, d), cosine: 0.98}, {axis: posVec(r, d), cosine: 0.995}}
}

var verifyWorkload = &workload{
	name: "verify",
	rate: 50,
	reps: 9,
	data: func(r *rand.Rand) []namedDS {
		return []namedDS{{"fifa", stablerank.FIFA(r, verifyFIFAN)}, {"ind3", stablerank.Independent(r, verifyInd3N, 3)}}
	},
	// One sweep worker per request: with one connection per core, a POST's
	// sweep then leaves the other core to the GETs instead of stalling them
	// both, so the median op times a GET, not how often one queued behind
	// a sweep.
	workers: 1,
	config:  func(b *bench) server.Config { return server.Config{Workers: b.w.workers} },
	warm: func(b *bench) []*Op {
		var ops []*Op
		for _, nd := range b.datasets {
			for _, reg := range b.regions[nd.name] {
				w := inRegion(b.inputRand, reg, nd.ds.D())
				ops = append(ops, warmOp(nd.name, reg, verifySamples, 0, w), warmOp(nd.name, reg, verifySamples, verifyAdaptive, w))
			}
		}
		return ops
	},
	gen: func(b *bench) func(r *rand.Rand) *Op {
		// The catalog of published rankings. Popularity rank i belongs to
		// dataset i/3 mod 2 and region i mod 3 on every seed, so the few
		// entries the Zipf head sends most traffic to cost the same whatever
		// the seed; the seed draws the rankings themselves.
		catalog := make([]*Op, verifyCatalog)
		cr := b.inputRand
		for i := range catalog {
			nd := b.datasets[(i/3)%len(b.datasets)]
			reg := b.regions[nd.name][i%3]
			w := inRegion(cr, reg, nd.ds.D())
			in := intent{ds: nd.name, reg: reg, samples: verifySamples}
			var op *Op
			if reg.axis == nil {
				// A full-space GET has no region parameters; its weights
				// name the ranking.
				in.qs = []qspec{{Op: "verify", Weights: w}}
				op = getOp("get_verify", "verify", in, url.Values{"weights": {fmtVec(w)}})
			} else {
				rk := stablerank.RankingOf(nd.ds, w)
				ids := make([]string, len(rk.Order))
				for j, idx := range rk.Order {
					ids[j] = nd.ds.Item(idx).ID
				}
				in.qs = []qspec{{Op: "verify"}}
				in.ranking = rk.Order
				op = getOp("get_verify", "verify", in, url.Values{"ranking": {strings.Join(ids, ",")}})
			}
			op.Check = verifyGetCheck(nd, reg, w)
			catalog[i] = op
		}
		// Seven GETs and three POSTs in every ten ops. POST v of every 24
		// goes to dataset v%2 and region v/2%3, adaptive when v/6 is 0.
		kinds, posts := newDeck(7, 3), newDeck(slices.Repeat([]int{1}, 24)...)
		return func(r *rand.Rand) *Op {
			if kinds.draw(r) == 0 {
				return catalog[zipf(r, verifySkew, len(catalog))]
			}
			v := posts.draw(r)
			nd := b.datasets[v%len(b.datasets)]
			reg := b.regions[nd.name][v/2%3]
			q := queryReq{Dataset: nd.name, Weights: reg.axis, Cosine: reg.cosine, Samples: verifySamples}
			if v/6 == 0 {
				q.Adaptive = verifyAdaptive
			}
			ws := make([][]float64, verifyBatch)
			for i := range ws {
				ws[i] = inRegion(r, reg, nd.ds.D())
				q.Queries = append(q.Queries, qspec{Op: "verify", Weights: ws[i]})
			}
			op := postOp("post_verify", q)
			op.Check = verifyPostCheck(nd, reg, ws)
			return op
		}
	},
}

// verifyGetCheck checks a GET verify answer; full-space d=3 answers are
// compared with the exact 3D oracle.
func verifyGetCheck(nd namedDS, reg region, w []float64) func([]byte) error {
	return func(body []byte) error {
		var v verifyJSON
		if err := decode(body, &v); err != nil {
			return err
		}
		if !(v.Stability >= 0 && v.Stability <= 1) || v.Exact || v.SampleCount != verifySamples {
			return fmt.Errorf("implausible verify answer %+v", v)
		}
		if reg.axis == nil && nd.ds.D() == 3 {
			return checkVerify3D(nd.ds, w, v.Stability, v.SampleCount)
		}
		return nil
	}
}

func verifyPostCheck(nd namedDS, reg region, ws [][]float64) func([]byte) error {
	return func(body []byte) error {
		var q queryJSON
		if err := decode(body, &q); err != nil {
			return err
		}
		if len(q.Results) != len(ws) {
			return fmt.Errorf("%d results for %d verifies", len(q.Results), len(ws))
		}
		for i, res := range q.Results {
			if res.Error != "" || res.Stability == nil || !(*res.Stability >= 0 && *res.Stability <= 1) {
				return fmt.Errorf("result %d: implausible verify answer %+v", i, res)
			}
			if reg.axis == nil && nd.ds.D() == 3 {
				if err := checkVerify3D(nd.ds, ws[i], *res.Stability, res.SampleCount); err != nil {
					return fmt.Errorf("result %d: %w", i, err)
				}
			}
		}
		return nil
	}
}

// ---- explore: producers choosing weights (Problems 2 and 3) ----

const (
	explore2DN     = 400
	explore3DN     = 120
	exploreSamples = 20_000
	// exploreCones is 1.5x the server's 64 resident analyzers, so popular
	// cones stay resident while the tail is evicted and comes back from a
	// pool snapshot.
	exploreCones = 96
	exploreH     = 3
	exploreLimit = 4
	explorePage  = 3
	exploreWarm  = 8
)

var exploreWorkload = &workload{
	name: "explore",
	rate: 46,
	reps: 25,
	data: func(r *rand.Rand) []namedDS {
		return []namedDS{{"ind2", stablerank.Independent(r, explore2DN, 2)}, {"ind3", stablerank.Independent(r, explore3DN, 3)}}
	},
	config: func(b *bench) server.Config {
		return server.Config{DataDir: filepath.Join(b.dir, fmt.Sprintf("data-%d-%d", b.pid, b.instances.Add(1)))}
	},
	warm: func(b *bench) []*Op {
		// The most popular cones are resident from the start.
		var ops []*Op
		for _, c := range exploreConeList(b)[:exploreWarm] {
			ops = append(ops, warmOp(c.nd.name, c.reg, exploreSamples, 0, inRegion(b.inputRand, c.reg, c.nd.ds.D())))
		}
		return ops
	},
	gen: func(b *bench) func(r *rand.Rand) *Op {
		cones := exploreConeList(b)
		// Only a few distinct 2D top-h answers get the costlier brute-force
		// top check; every answer gets the per-ranking checks.
		topChecks := 0
		// Every 20 ops: 8 POSTs on the 2D set, 6 on the d=3 set, 3 GET toph
		// and 3 GET pages. The three classes cost about 0.5, 7 and 25 ms on
		// a 2-core machine, so the median op falls inside the 2D POSTs and
		// not in a gap between classes. A POST's cone is Zipf-popular among
		// its dataset's cones (even indices 2D, odd d=3); a GET's among all.
		kinds := newDeck(8, 6, 3, 3)
		return func(r *rand.Rand) *Op {
			k := kinds.draw(r)
			var c exploreCone
			if k < 2 {
				c = cones[2*zipf(r, 1.1, len(cones)/2)+k]
			} else {
				c = cones[zipf(r, 1.1, len(cones))]
			}
			in := intent{ds: c.nd.name, reg: c.reg, samples: exploreSamples}
			is2D := c.nd.ds.D() == 2
			check2DAll := func(rs []stableJSON) error {
				if !is2D {
					return nil
				}
				for i, s := range rs {
					if err := check2D(c.nd.ds, c.iv, s.Weights, s.Items, s.Stability); err != nil {
						return fmt.Errorf("ranking %d: %w", i, err)
					}
				}
				if len(rs) > 0 && rs[0].Rank == 1 && topChecks < 8 {
					topChecks++
					return check2DTop(c.nd.ds, c.iv, rs[0].Stability)
				}
				return nil
			}
			switch k {
			case 0, 1:
				q := queryReq{Dataset: c.nd.name, Weights: c.reg.axis, Cosine: c.reg.cosine, Samples: exploreSamples}
				var w []float64
				if is2D {
					w = inRegion(r, c.reg, 2)
					q.Queries = []qspec{{Op: "toph", H: exploreH}, {Op: "verify", Weights: w}, {Op: "enumerate", Limit: exploreLimit}}
				} else {
					q.Queries = []qspec{{Op: "toph", H: exploreH}, {Op: "above", S: 0.2}, {Op: "enumerate", Limit: exploreLimit}}
				}
				op := postOp(fmt.Sprintf("post_enum_%dd", c.nd.ds.D()), q)
				op.Check = func(body []byte) error {
					var qr queryJSON
					if err := decode(body, &qr); err != nil {
						return err
					}
					if len(qr.Results) != 3 {
						return fmt.Errorf("%d results for 3 queries", len(qr.Results))
					}
					for i, res := range qr.Results {
						if res.Error != "" {
							return fmt.Errorf("result %d: %s", i, res.Error)
						}
						if res.Op == "verify" {
							if res.Stability == nil {
								return fmt.Errorf("result %d: verify without stability", i)
							}
							if err := check2D(c.nd.ds, c.iv, w, res.Ranking, *res.Stability); err != nil {
								return fmt.Errorf("result %d: %w", i, err)
							}
							continue
						}
						if err := checkEnumeration(res.Rankings, 1); err != nil {
							return fmt.Errorf("result %d: %w", i, err)
						}
						if err := check2DAll(res.Rankings); err != nil {
							return fmt.Errorf("result %d: %w", i, err)
						}
					}
					return nil
				}
				return op
			case 2:
				in.qs = []qspec{{Op: "toph", H: exploreH}}
				op := getOp("get_toph", "toph", in, url.Values{"h": {strconv.Itoa(exploreH)}})
				op.Check = func(body []byte) error {
					var t topHJSON
					if err := decode(body, &t); err != nil {
						return err
					}
					if err := checkEnumeration(t.Rankings, 1); err != nil {
						return err
					}
					return check2DAll(t.Rankings)
				}
				return op
			default:
				page := r.Intn(2)
				// The handler enumerates one past the page to learn has_more.
				in.qs = []qspec{{Op: "toph", H: (page+1)*explorePage + 1}}
				op := getOp("get_rankings", "rankings", in, url.Values{"page": {strconv.Itoa(page)}, "per_page": {strconv.Itoa(explorePage)}})
				op.Check = func(body []byte) error {
					var p pageJSON
					if err := decode(body, &p); err != nil {
						return err
					}
					if p.Page != page || p.PerPage != explorePage || len(p.Results) > explorePage {
						return fmt.Errorf("page %d/%d with %d results", p.Page, p.PerPage, len(p.Results))
					}
					if err := checkEnumeration(p.Results, page*explorePage+1); err != nil {
						return err
					}
					return check2DAll(p.Results)
				}
				return op
			}
		}
	},
}

type exploreCone struct {
	nd  namedDS
	reg region
	iv  geom.Interval2D
}

// exploreConeList returns the cones, alternating between the datasets,
// drawn on first use.
func exploreConeList(b *bench) []exploreCone {
	if b.cones != nil {
		return b.cones
	}
	b.cones = make([]exploreCone, exploreCones)
	for i := range b.cones {
		nd := b.datasets[i%2]
		c := exploreCone{nd: nd, reg: region{axis: posVec(b.dataRand, nd.ds.D()), cosine: 0.995}}
		if nd.ds.D() == 2 {
			c.reg.cosine = 0.99
			iv, err := interval(nd.ds, c.reg)
			if err != nil {
				panic(err) // a cone around a positive axis is a valid 2D region
			}
			c.iv = iv
		}
		b.cones[i] = c
	}
	return b.cones
}

// ---- mutate: a live catalog under writes ----

const (
	mutateN       = 500
	mutateMinN    = 475
	mutateSamples = 100_000
	// mutateTopHSamples keeps the enumeration reads small beside the writes.
	mutateTopHSamples = 2000
	mutateCatalog     = 1024
	mutateProbes      = 6
	// mutateMaxDeltas bounds a PATCH's deltas and mutateDriftRows is the
	// server's DriftSamples. Each delta costs a drift measurement of
	// mutateDriftRows O(n) rank passes on one core; at the defaults (up to
	// 4 deltas, 2048 rows) PATCHes take most of a core, and the read
	// latencies then follow the machine's speed at twice its swings.
	mutateMaxDeltas = 2
	mutateDriftRows = 512
)

var mutateWorkload = &workload{
	name: "mutate",
	rate: 46,
	reps: 25,
	data: func(r *rand.Rand) []namedDS {
		return []namedDS{{"fifa", stablerank.FIFA(r, mutateN)}}
	},
	config: func(b *bench) server.Config { return server.Config{DriftSamples: mutateDriftRows} },
	warm: func(b *bench) []*Op {
		nd := b.datasets[0]
		regs := b.regions[nd.name]
		var ops []*Op
		for _, reg := range regs {
			ops = append(ops, warmOp(nd.name, reg, mutateSamples, 0, inRegion(b.inputRand, reg, 4)))
		}
		for _, reg := range regs[1:] {
			ops = append(ops, warmOp(nd.name, reg, mutateSamples, verifyAdaptive, inRegion(b.inputRand, reg, 4)))
		}
		return append(ops, warmOp(nd.name, regs[2], mutateTopHSamples, 0, inRegion(b.inputRand, regs[2], 4)))
	},
	gen: func(b *bench) func(r *rand.Rand) *Op {
		nd := b.datasets[0]
		regs := b.regions[nd.name]
		catalog := make([][]float64, mutateCatalog)
		for i := range catalog {
			catalog[i] = posVec(b.inputRand, 4)
		}
		// The generator's view of which item IDs exist, so every delta it
		// writes is valid when PATCHes apply in generation order.
		ids := make([]string, nd.ds.N())
		attrs := make(map[string][]float64, nd.ds.N())
		for i := range ids {
			ids[i] = nd.ds.Item(i).ID
			attrs[ids[i]] = nd.ds.Item(i).Attrs
		}
		seq, added := 0, 0
		// Every 20 ops: 4 PATCHes, 6 GET verifies, 7 POST verifies, 3 toph.
		// One POST verify in four is adaptive.
		kinds, adaptive := newDeck(4, 6, 7, 3), newDeck(3, 1)
		return func(r *rand.Rand) *Op {
			switch kinds.draw(r) {
			case 0:
				k := 1 + r.Intn(mutateMaxDeltas)
				type deltaJSON struct {
					Op    string    `json:"op"`
					ID    string    `json:"id"`
					Attrs []float64 `json:"attrs,omitempty"`
				}
				var wire []deltaJSON
				var deltas []stablerank.Delta
				touched := map[string]bool{}
				for len(deltas) < k {
					var d deltaJSON
					v := r.Float64()
					switch {
					case v < 0.6 || (v >= 0.8 && len(ids) <= mutateMinN):
						d.ID = ids[r.Intn(len(ids))]
						if touched[d.ID] {
							continue
						}
						d.Op, d.Attrs = "update", jitter(r, attrs[d.ID])
						deltas = append(deltas, stablerank.Delta{Op: stablerank.AttrUpdate, ID: d.ID, Attrs: d.Attrs})
						attrs[d.ID] = d.Attrs
					case v < 0.8:
						added++
						d.Op, d.ID = "add", fmt.Sprintf("new%05d", added)
						d.Attrs = jitter(r, attrs[ids[r.Intn(len(ids))]])
						deltas = append(deltas, stablerank.Delta{Op: stablerank.ItemAdd, ID: d.ID, Attrs: d.Attrs})
						ids = append(ids, d.ID)
						attrs[d.ID] = d.Attrs
					default:
						j := r.Intn(len(ids))
						d.Op, d.ID = "remove", ids[j]
						if touched[d.ID] {
							continue
						}
						deltas = append(deltas, stablerank.Delta{Op: stablerank.ItemRemove, ID: d.ID})
						ids = append(ids[:j], ids[j+1:]...)
						delete(attrs, d.ID)
					}
					touched[d.ID] = true
					wire = append(wire, d)
				}
				body, err := json.Marshal(map[string]any{"deltas": wire})
				if err != nil {
					panic(err) // plain structs of numbers and strings always marshal
				}
				seq++
				return &Op{Kind: "patch", Method: "PATCH", Path: "/v1/datasets/" + nd.name, Body: body, Seq: seq,
					In: intent{ds: nd.name, deltas: deltas}}
			case 1:
				w := catalog[zipf(r, 1.1, len(catalog))]
				in := intent{ds: nd.name, reg: regs[0], samples: mutateSamples, qs: []qspec{{Op: "verify", Weights: w}}}
				return getOp("get_verify", "verify", in, url.Values{"weights": {fmtVec(w)}})
			case 2:
				reg := regs[1+r.Intn(2)]
				q := queryReq{Dataset: nd.name, Weights: reg.axis, Cosine: reg.cosine, Samples: mutateSamples}
				if adaptive.draw(r) == 1 {
					q.Adaptive = verifyAdaptive
				}
				for i := 0; i < 4; i++ {
					q.Queries = append(q.Queries, qspec{Op: "verify", Weights: inRegion(r, reg, 4)})
				}
				return postOp("post_verify", q)
			default:
				q := queryReq{Dataset: nd.name, Weights: regs[2].axis, Cosine: regs[2].cosine, Samples: mutateTopHSamples,
					Queries: []qspec{{Op: "toph", H: 3}}}
				op := postOp("post_enum", q)
				op.Check = func(body []byte) error {
					var qr queryJSON
					if err := decode(body, &qr); err != nil {
						return err
					}
					if len(qr.Results) != 1 || qr.Results[0].Error != "" {
						return fmt.Errorf("implausible toph answer %s", shorten(string(body)))
					}
					return checkEnumeration(qr.Results[0].Rankings, 1)
				}
				return op
			}
		}
	},
	final: mutateFinal,
}

// jitter returns attrs moved by up to 5% of the unit range, kept in [0,1].
func jitter(r *rand.Rand, attrs []float64) []float64 {
	out := make([]float64, len(attrs))
	for i, a := range attrs {
		out[i] = round4(math.Min(1, math.Max(0, a+0.05*(2*r.Float64()-1))))
	}
	return out
}

// mutateFinal compares the server's answers on the final dataset with a
// fresh analyzer built over the benchmark's own copy, bit for bit.
func mutateFinal(ctx context.Context, b *bench) error {
	final := b.wr.dataset()
	nd := b.datasets[0]
	r := rand.New(rand.NewSource(b.seed + 7))
	for _, reg := range b.regions[nd.name][:2] {
		q := queryReq{Dataset: nd.name, Weights: reg.axis, Cosine: reg.cosine, Samples: mutateSamples}
		var queries []stablerank.Query
		for i := 0; i < mutateProbes; i++ {
			w := inRegion(r, reg, 4)
			q.Queries = append(q.Queries, qspec{Op: "verify", Weights: w})
			queries = append(queries, stablerank.VerifyQuery{Ranking: stablerank.RankingOf(final, w)})
		}
		body, _, err := send(ctx, b.client, b.inst.base, postOp("probe", q))
		if err != nil {
			return fmt.Errorf("final probe: %w", err)
		}
		var got queryJSON
		if err := decode(body, &got); err != nil {
			return err
		}
		a, err := stablerank.New(final, analyzerOptions(intent{reg: reg, samples: mutateSamples}, 0)...)
		if err != nil {
			return err
		}
		want, err := a.Do(ctx, queries...)
		if err != nil {
			return err
		}
		if len(got.Results) != len(want) {
			return fmt.Errorf("final probe: %d results, want %d", len(got.Results), len(want))
		}
		for i, res := range got.Results {
			v := want[i].Verification
			if res.Stability == nil || res.ConfidenceError == nil || v == nil ||
				math.Float64bits(*res.Stability) != math.Float64bits(v.Stability) ||
				math.Float64bits(*res.ConfidenceError) != math.Float64bits(v.ConfidenceError) {
				return fmt.Errorf("final probe %d: server %s, fresh analyzer %+v", i, shorten(string(body)), v)
			}
			order := queries[i].(stablerank.VerifyQuery).Ranking.Order
			for j, it := range res.Ranking {
				if it.ID != final.Item(order[j]).ID {
					return fmt.Errorf("final probe %d: position %d is %s on the server, %s on the final dataset", i, j, it.ID, final.Item(order[j]).ID)
				}
			}
		}
	}
	return nil
}

// analyzerOptions mirrors the options a server with the given sweep
// workers builds for a key.
func analyzerOptions(in intent, workers int) []stablerank.Option {
	opts := []stablerank.Option{stablerank.WithSeed(1), stablerank.WithSampleCount(in.samples), stablerank.WithWorkers(workers)}
	if in.adaptive > 0 {
		opts = append(opts, stablerank.WithAdaptive(in.adaptive))
	}
	if in.reg.axis != nil {
		opts = append(opts, stablerank.WithCosineSimilarity(in.reg.axis, in.reg.cosine))
	}
	return opts
}

// ---- randomized: the library's randomized top-k operator ----

const (
	randN     = 500
	randK     = 10
	randH     = 3
	randFirst = 1000
	randStep  = 250
	randCones = 32
	randSeeds = 16
	// randBrute is the sample count of the brute-force oracle.
	randBrute  = 10_000
	randChecks = 12
)

var randomizedWorkload = &workload{
	name: "randomized",
	rate: 48,
	reps: 15,
	data: func(r *rand.Rand) []namedDS {
		return []namedDS{{"diamonds", stablerank.Diamonds(r, randN)}}
	},
	gen: func(b *bench) func(r *rand.Rand) *Op {
		axes := make([][]float64, randCones)
		for i := range axes {
			axes[i] = posVec(b.dataRand, b.datasets[0].ds.D())
		}
		// The brute-force oracle is costly, so it checks only the first
		// randChecks distinct answers.
		checks := 0
		return func(r *rand.Rand) *Op {
			spec := &randSpec{axis: axes[zipf(r, 1.1, randCones)], cosine: 0.98, seed: 1 + int64(r.Intn(randSeeds)), mode: stablerank.TopKSet}
			if r.Intn(2) == 0 {
				spec.mode = stablerank.TopKRanked
			}
			path := fmt.Sprintf("random?weights=%s&cosine=%s&seed=%d&mode=%s&k=%d&h=%d", fmtVec(spec.axis), fmtNum(spec.cosine), spec.seed, spec.mode, randK, randH)
			op := &Op{Kind: "random", Method: "CALL", Path: path, In: intent{rnd: spec}}
			op.Check = func(body []byte) error {
				if checks++; checks > randChecks {
					return nil
				}
				var ans randAnswer
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&ans); err != nil {
					return err
				}
				return checkRandomized(b.lib, *spec, randK, randBrute, ans)
			}
			return op
		}
	},
}

// runRandomized is one randomized op, exactly as `stablerank random` runs
// it: an analyzer over the cone, then Randomized(mode, k).TopH.
func runRandomized(ctx context.Context, ds *stablerank.Dataset, spec *randSpec) (randAnswer, error) {
	a, err := stablerank.New(ds, stablerank.WithCosineSimilarity(spec.axis, spec.cosine), stablerank.WithSeed(spec.seed))
	if err != nil {
		return randAnswer{}, err
	}
	rz, err := a.Randomized(spec.mode, randK)
	if err != nil {
		return randAnswer{}, err
	}
	res, err := rz.TopH(ctx, randH, randFirst, randStep)
	if err != nil {
		return randAnswer{}, err
	}
	return randAnswer{Results: res, Total: rz.TotalSamples()}, nil
}

var workloads = []*workload{verifyWorkload, exploreWorkload, mutateWorkload, randomizedWorkload}
