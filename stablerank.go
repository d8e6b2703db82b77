package stablerank

import (
	"context"
	"errors"
	"time"

	"stablerank/internal/core"
	"stablerank/internal/dataset"
	"stablerank/internal/geom"
	"stablerank/internal/md"
	"stablerank/internal/store"
)

// Sentinel errors. They compare with errors.Is across every entry point of
// the package.
var (
	// ErrInfeasibleRanking reports that no scoring function in the region of
	// interest induces the given ranking.
	ErrInfeasibleRanking = core.ErrInfeasibleRanking
	// ErrExhausted reports that enumeration has produced every ranking.
	ErrExhausted = core.ErrExhausted
	// ErrEmptyDataset reports an operation on a dataset without items.
	ErrEmptyDataset = dataset.ErrEmptyDataset
)

// Region is an acceptable region of scoring functions (Section 2.2.2 of the
// paper): a subset of the non-negative unit sphere a stakeholder considers
// reasonable weight choices.
type Region = geom.Region

// Interval2D is a two-dimensional region as an angle interval; it describes
// exact 2D verification results.
type Interval2D = geom.Interval2D

// Halfspace is one linear weight constraint, Normal·w >= 0 (Positive) or
// <= 0; use it with WithConstraints and read it back from Verification.
type Halfspace = geom.Halfspace

// Vector is a weight or attribute vector.
type Vector = geom.Vector

// NewVector builds a Vector from its components.
func NewVector(xs ...float64) Vector { return geom.NewVector(xs...) }

// Verification is the answer to the consumer's stability question
// (Problem 1). See Analyzer.VerifyStability.
type Verification = core.Verification

// Stable is one enumerated ranking with its stability. See
// Analyzer.Enumerator, Analyzer.TopH and Analyzer.AboveThreshold.
type Stable = core.Stable

// MergedStable is a group of near-identical rankings whose stabilities are
// summed. See Analyzer.TopHMerged.
type MergedStable = core.MergedStable

// BoundaryFacet is one facet of a ranking region: crossing it swaps exactly
// the named item pair. See Analyzer.Boundary.
type BoundaryFacet = md.BoundaryFacet

// Option configures an Analyzer.
type Option = core.Option

// WithRegion sets the acceptable region U* directly.
func WithRegion(r Region) Option { return core.WithRegion(r) }

// WithCone restricts scoring functions to a hypercone of half-angle theta
// around the reference weight vector.
func WithCone(weights []float64, theta float64) Option { return core.WithCone(weights, theta) }

// WithCosineSimilarity restricts scoring functions to those within the given
// minimum cosine similarity of the reference weight vector, as in the
// paper's "0.998 cosine similarity around the CSMetrics weights".
func WithCosineSimilarity(weights []float64, minCosine float64) Option {
	return core.WithCosineSimilarity(weights, minCosine)
}

// WithConstraints restricts scoring functions to a convex cone of linear
// weight constraints, e.g. "w2 at most w1".
func WithConstraints(d int, constraints ...Halfspace) Option {
	return core.WithConstraints(d, constraints...)
}

// WithSeed fixes the random seed of every sampler the analyzer creates
// (default 1). Identical seeds give identical results.
func WithSeed(seed int64) Option { return core.WithSeed(seed) }

// WithSampleCount sets the Monte-Carlo sample pool used by verification and
// the multi-dimensional enumerator (default 100,000, the paper's Section 6.3
// choice for GET-NEXTmd).
func WithSampleCount(n int) Option { return core.WithSampleCount(n) }

// WithConfidenceLevel sets 1-alpha for reported confidence errors (default
// alpha = 0.05).
func WithConfidenceLevel(alpha float64) Option { return core.WithConfidenceLevel(alpha) }

// WithWorkers sets how many goroutines shard every pass over the
// Monte-Carlo sample pool: the pool build, the fused and adaptive query
// sweeps of Do, and the LastDrift score pass (default 0 = GOMAXPROCS).
// Determinism is independent of this knob: each pass works in fixed-size
// chunks of pool rows, the pool's RNG streams are seeded from (seed, chunk
// index), and per-chunk results are merged as exact integer counts or in
// chunk order, so worker counts 1, 2 and 64 all produce bit-identical pools
// and answers for the same seed.
func WithWorkers(n int) Option { return core.WithWorkers(n) }

// WithAdaptive enables adaptive verification at the given target confidence
// error (0 < e < 1): verify queries sweep the Monte-Carlo pool in growing
// chunks and stop as soon as the confidence half-width of the running
// estimate — at the WithConfidenceLevel level — drops to the target. Any
// pool prefix is itself an unbiased iid sample, so an early-stopped estimate
// carries the usual guarantee at its own (smaller) sample count, reported in
// Verification.SampleCount with Verification.Adaptive set. A query that
// never clears the target consumes the whole pool and reports exactly the
// non-adaptive answer. Stopping points depend only on seed and pool size —
// never on WithWorkers — so adaptive results are deterministic. Exact 2D
// verification, item-rank queries and enumeration are unaffected.
func WithAdaptive(targetError float64) Option { return core.WithAdaptive(targetError) }

// PoolCache is an external snapshot store for the Monte-Carlo sample pool —
// the hook stablerankd's persistent store plugs in so a restarted server can
// reinstall a previously drawn pool instead of resampling it. Load returns a
// snapshot in the versioned pool codec (or false on a miss); Save is offered
// a snapshot once, after a successful build; Key names the pool's canonical
// identity (dataset hash, region, seed, sample count, PoolLayoutVersion).
// Corrupt or shape-mismatched snapshots degrade to a miss plus a rebuild:
// the draw is deterministic, so rebuilding is always safe.
type PoolCache = core.PoolCache

// PoolLayoutVersion identifies the pool snapshot byte layout. It belongs in
// every PoolCache key: bumping either the matrix codec or the snapshot frame
// changes it, so stale snapshots read as cache misses.
const PoolLayoutVersion = store.SnapshotLayoutVersion

// WithPoolCache attaches a snapshot cache to the analyzer's sample pool. A
// warm hit installs the decoded matrix verbatim — PoolBuilds stays 0,
// PoolRestores becomes 1, and results are bit-identical to a cold build
// because the codec round-trips float bits exactly.
func WithPoolCache(c PoolCache) Option { return core.WithPoolCache(c) }

// PoolFiller is an alternative construction strategy for the sample pool —
// the hook stablerankd's cluster coordinator plugs in so a pool can be
// assembled from chunks computed on remote fill workers. A filler must
// return a matrix bit-identical to the local draw for the analyzer's
// (region, seed, n); per-chunk deterministic seeding makes that natural.
// Filler failures (other than context cancellation) and wrong-shape results
// silently fall back to the local draw — degrading costs latency, never
// correctness.
type PoolFiller = core.PoolFiller

// WithPoolFiller delegates pool construction to an external filler. When a
// PoolCache is also attached the cache still wins: the filler only runs on
// a miss, and its output is offered back to the cache like any built pool.
func WithPoolFiller(f PoolFiller) Option { return core.WithPoolFiller(f) }

// RegionOption translates the textual region parameterization that the CLI
// flags and the HTTP query parameters share — reference weights plus either
// a hypercone half-angle theta or a minimum cosine similarity — into an
// Option. At most one of theta and cosine may be positive, and either
// requires weights. With neither it returns a nil Option, meaning the whole
// function space.
func RegionOption(weights []float64, theta, cosine float64) (Option, error) {
	switch {
	case theta > 0 && cosine > 0:
		return nil, errors.New("stablerank: use only one of theta and cosine")
	case theta > 0:
		if weights == nil {
			return nil, errors.New("stablerank: theta requires weights")
		}
		return WithCone(weights, theta), nil
	case cosine > 0:
		if weights == nil {
			return nil, errors.New("stablerank: cosine requires weights")
		}
		return WithCosineSimilarity(weights, cosine), nil
	default:
		return nil, nil
	}
}

// Analyzer answers stability questions about one dataset within one region
// of interest: stability verification for consumers (Problem 1) and batch /
// iterative stable-ranking enumeration for producers (Problems 2 and 3).
//
// An Analyzer is safe for concurrent use by multiple goroutines; its shared
// Monte-Carlo sample pool is drawn once, on first need, and is immutable
// afterwards. The Enumerator and Randomized cursors it hands out are
// single-consumer: create one per goroutine.
//
// Every potentially long-running method takes a context.Context and returns
// the context's error promptly after cancellation, leaving the Analyzer
// usable.
type Analyzer struct {
	core *core.Analyzer
}

// New builds an Analyzer over the dataset. Without options the region of
// interest is the whole function space U.
func New(ds *Dataset, opts ...Option) (*Analyzer, error) {
	a, err := core.New(ds, opts...)
	if err != nil {
		return nil, err
	}
	return &Analyzer{core: a}, nil
}

// Dataset returns the analyzed dataset.
func (a *Analyzer) Dataset() *Dataset { return a.core.Dataset() }

// Region returns the region of interest.
func (a *Analyzer) Region() Region { return a.core.Region() }

// Seed returns the configured random seed; together with SampleCount and the
// region it identifies the analyzer's Monte-Carlo behaviour, which makes the
// pair usable as cache-key material for services sharing Analyzers across
// requests.
func (a *Analyzer) Seed() int64 { return a.core.Seed() }

// SampleCount returns the configured Monte-Carlo sample pool size.
func (a *Analyzer) SampleCount() int { return a.core.SampleCount() }

// PoolBuilds returns how many times the shared sample pool has been
// (re)built. Concurrent first uses coalesce into one build, so after any
// number of successful calls it reports 1; only builds aborted by
// cancellation and later retried raise it.
func (a *Analyzer) PoolBuilds() int64 { return a.core.PoolBuilds() }

// PoolBuilt reports whether the shared sample pool is resident.
func (a *Analyzer) PoolBuilt() bool { return a.core.PoolBuilt() }

// PoolMemoryBytes returns the resident size of the shared Monte-Carlo
// sample pool — the contiguous backing array (SampleCount x dimension
// float64s) plus the interned snapshot-key string retained with it — or 0
// while no pool is built. This is the per-analyzer memory figure stablerankd
// reports in /statsz.
func (a *Analyzer) PoolMemoryBytes() int64 { return a.core.PoolMemoryBytes() }

// PoolRestores returns how many times the pool was installed from an
// attached PoolCache instead of drawn; a warm restart answers its first
// query with PoolBuilds() == 0 and PoolRestores() == 1.
func (a *Analyzer) PoolRestores() int64 { return a.core.PoolRestores() }

// PoolSnapshotKey returns the interned PoolCache key of the resident pool,
// or "" while no pool is built or no cache is attached.
func (a *Analyzer) PoolSnapshotKey() string { return a.core.PoolSnapshotKey() }

// Workers returns the effective worker count of the pool build and batch
// sweeps: the WithWorkers value, or GOMAXPROCS when unset.
func (a *Analyzer) Workers() int { return a.core.Workers() }

// PoolBuildDuration returns the wall time of the most recent successful
// sample-pool build, or 0 if none has completed yet — the number /statsz
// exposes per resident analyzer.
func (a *Analyzer) PoolBuildDuration() time.Duration { return a.core.PoolBuildDuration() }

// AdaptiveTargetError returns the WithAdaptive target confidence error, or 0
// when adaptive verification is disabled.
func (a *Analyzer) AdaptiveTargetError() float64 { return a.core.AdaptiveTargetError() }

// AdaptiveStops returns how many verify queries adaptive verification has
// stopped before exhausting the sample pool.
func (a *Analyzer) AdaptiveStops() int64 { return a.core.AdaptiveStops() }

// AdaptiveRowsSaved returns the total number of pool rows that early-stopped
// verify queries skipped — the sweep work adaptive verification avoided,
// reported per analyzer in stablerankd's /statsz.
func (a *Analyzer) AdaptiveRowsSaved() int64 { return a.core.AdaptiveRowsSaved() }

// VerifyStability computes the stability of ranking r in the region of
// interest — the fraction of acceptable scoring functions that induce it:
// exact in two dimensions, a Monte-Carlo estimate with a confidence error
// otherwise. It returns ErrInfeasibleRanking when no acceptable function
// induces r.
func (a *Analyzer) VerifyStability(ctx context.Context, r Ranking) (Verification, error) {
	return a.core.VerifyStability(orBackground(ctx), r)
}

// TopH returns the h most stable rankings (batch Problem 2, count form).
func (a *Analyzer) TopH(ctx context.Context, h int) ([]Stable, error) {
	return a.core.TopH(orBackground(ctx), h)
}

// AboveThreshold returns every ranking with stability >= s (batch Problem 2,
// threshold form), in decreasing stability order.
func (a *Analyzer) AboveThreshold(ctx context.Context, s float64) ([]Stable, error) {
	return a.core.AboveThreshold(orBackground(ctx), s)
}

// TopHMerged enumerates ranking regions in decreasing stability, merging
// rankings within Kendall-tau distance tau of a group representative and
// summing their stabilities (the Section 8 "allow minor changes" extension).
// At most maxScan regions are examined (<= 0 scans until exhaustion). At
// most h groups are returned (<= 0 returns all).
func (a *Analyzer) TopHMerged(ctx context.Context, h, tau, maxScan int) ([]MergedStable, error) {
	return a.core.TopHMerged(orBackground(ctx), h, tau, maxScan)
}

// Enumerator prepares iterative stable-ranking enumeration (the GET-NEXT
// operator of Problem 3). The returned cursor is not safe for concurrent
// use; obtain one per goroutine (concurrent Enumerator calls on a shared
// Analyzer are safe).
func (a *Analyzer) Enumerator(ctx context.Context) (*Enumerator, error) {
	e, err := a.core.Enumerator(orBackground(ctx))
	if err != nil {
		return nil, err
	}
	return &Enumerator{core: e}, nil
}

// Randomized builds the randomized GET-NEXTr operator (Section 4.3) with the
// given ranking semantics; k is ignored for Complete. The returned cursor is
// not safe for concurrent use; obtain one per goroutine.
func (a *Analyzer) Randomized(mode Mode, k int) (*Randomized, error) {
	r, err := a.core.Randomized(mode, k)
	if err != nil {
		return nil, err
	}
	return &Randomized{core: r}, nil
}

// ItemRankDistribution samples the region of interest n times and returns
// the distribution of the given item's rank — the distributional form of
// Example 1's consumer question ("does Cornell make the top-10 under
// acceptable weights?").
func (a *Analyzer) ItemRankDistribution(ctx context.Context, item, n int) (RankDistribution, error) {
	return a.core.ItemRankDistribution(orBackground(ctx), item, n)
}

// Boundary returns the non-redundant boundary facets of ranking r's region:
// the item pairs whose exchange a weight perturbation can realize first. It
// works in any dimension.
func (a *Analyzer) Boundary(r Ranking) ([]BoundaryFacet, error) {
	return a.core.Boundary(r)
}

// orBackground tolerates a nil context at the public boundary so facade
// callers migrating from the pre-context API cannot panic deep inside a
// sampling loop.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background() //srlint:ctxflow nil-tolerance shim for pre-context facade callers; live callers' contexts pass through
	}
	return ctx
}
