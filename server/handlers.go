package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stablerank"
)

// JSON response shapes. Item references are rendered as IDs (with their
// dataset index alongside) so responses stay meaningful when clients never
// saw the CSV row order.

type itemRef struct {
	Index int    `json:"index"`
	ID    string `json:"id"`
}

type verifyResponse struct {
	Dataset         string    `json:"dataset"`
	Ranking         []itemRef `json:"ranking"`
	Stability       float64   `json:"stability"`
	ConfidenceError float64   `json:"confidence_error"`
	Exact           bool      `json:"exact"`
	SampleCount     int       `json:"sample_count,omitempty"`
}

type stableResponse struct {
	Rank            int       `json:"rank"`
	Stability       float64   `json:"stability"`
	Exact           bool      `json:"exact"`
	Items           []itemRef `json:"items"`
	Weights         []float64 `json:"weights,omitempty"`
	ConfidenceError float64   `json:"confidence_error,omitempty"`
}

type topHResponse struct {
	Dataset  string           `json:"dataset"`
	H        int              `json:"h"`
	Rankings []stableResponse `json:"rankings"`
}

type aboveResponse struct {
	Dataset   string           `json:"dataset"`
	Threshold float64          `json:"threshold"`
	Rankings  []stableResponse `json:"rankings"`
}

type rankingsResponse struct {
	Dataset string           `json:"dataset"`
	Page    int              `json:"page"`
	PerPage int              `json:"per_page"`
	HasMore bool             `json:"has_more"`
	Results []stableResponse `json:"results"`
}

type itemRankResponse struct {
	Dataset        string         `json:"dataset"`
	Item           itemRef        `json:"item"`
	Samples        int            `json:"samples"`
	Best           int            `json:"best"`
	Worst          int            `json:"worst"`
	Mode           int            `json:"mode"`
	Median         int            `json:"median"`
	Counts         map[string]int `json:"counts"`
	ProbabilityTop map[string]any `json:"probability_top,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
}

// routes wires every endpoint into a fresh mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /datasets", s.handleListDatasets)
	mux.HandleFunc("POST /datasets/{name}", s.handleAddDataset)
	mux.HandleFunc("PATCH /datasets/{name}", s.handlePatchDataset)
	mux.HandleFunc("PATCH /v1/datasets/{name}", s.handlePatchDataset)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /v1/query/stream", s.handleQueryStream)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDeleteJob)
	// GET /v1/jobs/{id} and GET /v1/{dataset}/{op} cannot coexist as
	// ServeMux patterns (neither is more specific), so all two-segment /v1
	// GETs share one dispatcher; "jobs" is therefore a reserved dataset name.
	mux.HandleFunc("GET /v1/{dataset}/{op}", s.handleV1Get)
	// The chunk-fill protocol (ping + fill): every node serves fills, so
	// replicas can be configured as each other's fill workers.
	mux.Handle("/cluster/v1/", s.fillWorker.Handler())
	return mux
}

// handleV1Get dispatches GET /v1/{dataset}/{op} between the job-status
// endpoint (dataset == "jobs") and the per-dataset query endpoints.
func (s *Server) handleV1Get(w http.ResponseWriter, r *http.Request) {
	name, op := r.PathValue("dataset"), r.PathValue("op")
	if name == "jobs" {
		s.handleGetJob(w, r, op)
		return
	}
	if op == "drift" {
		s.handleDrift(w, r, name)
		return
	}
	var h queryHandler
	switch op {
	case "verify":
		h = s.handleVerify
	case "toph":
		h = s.handleTopH
	case "above":
		h = s.handleAbove
	case "itemrank":
		h = s.handleItemRank
	case "rankings":
		h = s.handleRankings
	default:
		writeError(w, errNotFound("unknown endpoint /v1/%s/%s", name, op))
		return
	}
	s.serveQuery(w, r, name, h)
}

// queryContext is everything a query handler needs: the resolved dataset,
// the shared analyzer for the request's (dataset, region, seed, samples)
// key, and the canonical cache-key prefix identifying that tuple.
type queryContext struct {
	name     string
	ds       *stablerank.Dataset
	analyzer *stablerank.Analyzer
	keybase  string
}

// queryHandler parses endpoint-specific parameters and returns the canonical
// cache key of the query plus a closure computing the response. The closure
// only runs on a cache miss.
type queryHandler func(r *http.Request, qc *queryContext) (key string, compute func() (any, error), err error)

// serveQuery runs a queryHandler for the named dataset: it parses the
// shared region/seed/samples parameters, obtains the deduplicated analyzer,
// and serves the handler's answer from the LRU cache when an identical
// query was answered before.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, name string, h queryHandler) {
	qp, err := s.parseQueryParams(r, name)
	if err != nil {
		writeError(w, err)
		return
	}
	// In a cluster, hand the request to the analyzer key's owner so every
	// replica holds a disjoint slice of the analyzers (and their pools). A
	// failed hop falls through to local serving: any node can answer any
	// key bit-identically, so the fallback is invisible to the client.
	if s.cluster != nil {
		if owner, remote := s.cluster.owner(r, routingKey(qp.name, qp.spec, qp.seed, qp.samples, 0)); remote {
			if s.proxy(w, r, owner, nil) {
				return
			}
		}
	}
	s.markServedLocally(w)
	qc, err := s.queryContextFor(qp)
	if err != nil {
		writeError(w, err)
		return
	}
	key, compute, err := h(r, qc)
	if err != nil {
		writeError(w, err)
		return
	}
	if body, ok := s.cache.get(key); ok {
		serveBody(w, body, "hit")
		return
	}
	resp, err := compute()
	if err != nil {
		writeError(w, err)
		return
	}
	body, err := json.Marshal(resp)
	if err != nil {
		writeError(w, err)
		return
	}
	s.cache.put(key, body)
	serveBody(w, body, "miss")
}

func serveBody(w http.ResponseWriter, body []byte, cache string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cache)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte("\n"))
}

// queryParams is the parsed shared query parameters of one GET request —
// everything cluster routing and analyzer construction need, parsed cheaply
// enough to run BEFORE deciding which replica serves the request.
type queryParams struct {
	name    string
	ds      *stablerank.Dataset
	gen     int64
	ver     int64
	spec    regionSpec
	seed    int64
	samples int
}

// parseQueryParams resolves the named dataset and the shared query
// parameters; the per-dataset endpoints supply the name from the path, the
// stream endpoint from ?dataset=. It is also the earliest point at which an
// already-expired per-request deadline surfaces as a 504 instead of burning
// analyzer work.
func (s *Server) parseQueryParams(r *http.Request, name string) (*queryParams, error) {
	if err := r.Context().Err(); err != nil {
		return nil, err
	}
	ds, gen, ver, ok := s.registry.Get(name)
	if !ok {
		return nil, errNotFound("unknown dataset %q", name)
	}
	q := r.URL.Query()
	spec := regionSpec{}
	if wstr := q.Get("weights"); wstr != "" {
		w, err := parseWeights(wstr, ds.D())
		if err != nil {
			return nil, err
		}
		spec.weights = w
	}
	var err error
	if spec.theta, err = floatParam(q.Get("theta"), 0); err != nil {
		return nil, errBadRequest("bad theta: %v", err)
	}
	if spec.cosine, err = floatParam(q.Get("cosine"), 0); err != nil {
		return nil, errBadRequest("bad cosine: %v", err)
	}
	if err := spec.validate(ds.D(), q.Get("theta") != "", q.Get("cosine") != ""); err != nil {
		return nil, err
	}
	seed, err := intParam(q.Get("seed"), s.cfg.DefaultSeed)
	if err != nil {
		return nil, errBadRequest("bad seed: %v", err)
	}
	samples, err := intParam(q.Get("samples"), int64(s.cfg.DefaultSampleCount))
	if err != nil {
		return nil, errBadRequest("bad samples: %v", err)
	}
	if samples < 1 || samples > int64(s.cfg.MaxSampleCount) {
		return nil, errBadRequest("samples %d out of range [1, %d]", samples, s.cfg.MaxSampleCount)
	}
	return &queryParams{name: name, ds: ds, gen: gen, ver: ver, spec: spec, seed: seed, samples: int(samples)}, nil
}

// queryContextFor obtains the deduplicated analyzer for parsed parameters.
func (s *Server) queryContextFor(qp *queryParams) (*queryContext, error) {
	key := analyzerKey{dataset: qp.name, gen: qp.gen, ver: qp.ver, region: qp.spec.canonical(), seed: qp.seed, samples: qp.samples}
	a, err := s.analyzers.get(key, qp.ds, qp.spec)
	if err != nil {
		if _, isStatus := err.(statusError); isStatus {
			return nil, err
		}
		return nil, errBadRequest("building analyzer: %v", err)
	}
	return &queryContext{name: qp.name, ds: qp.ds, analyzer: a, keybase: key.String()}, nil
}

// queryContextNamed is parseQueryParams + queryContextFor in one step, for
// callers that never route (the stream endpoint is node-local).
func (s *Server) queryContextNamed(r *http.Request, name string) (*queryContext, error) {
	qp, err := s.parseQueryParams(r, name)
	if err != nil {
		return nil, err
	}
	return s.queryContextFor(qp)
}

func (s *Server) handleVerify(r *http.Request, qc *queryContext) (string, func() (any, error), error) {
	q := r.URL.Query()
	wstr, rstr := q.Get("weights"), q.Get("ranking")
	var ranking stablerank.Ranking
	switch {
	case rstr != "":
		// A published ranking to verify, as comma-separated item IDs (the
		// consumer form of Problem 1: the ranking need not be achievable in
		// the region at all).
		var err error
		ranking, err = parseRanking(rstr, qc.ds)
		if err != nil {
			return "", nil, err
		}
	case wstr != "":
		w, err := parseWeights(wstr, qc.ds.D())
		if err != nil {
			return "", nil, err
		}
		ranking = stablerank.RankingOf(qc.ds, w)
	default:
		return "", nil, errBadRequest("verify requires weights or ranking")
	}
	key := qc.keybase + "|verify|" + wstr + "|" + rstr
	return key, func() (any, error) {
		v, err := qc.analyzer.VerifyStability(r.Context(), ranking)
		if err != nil {
			return nil, err
		}
		resp := verifyResponse{
			Dataset:         qc.name,
			Ranking:         s.itemRefs(qc.ds, ranking.Order),
			Stability:       v.Stability,
			ConfidenceError: v.ConfidenceError,
			Exact:           v.Exact,
		}
		if !v.Exact {
			resp.SampleCount = qc.analyzer.SampleCount()
		}
		return resp, nil
	}, nil
}

func (s *Server) handleTopH(r *http.Request, qc *queryContext) (string, func() (any, error), error) {
	h, err := intParam(r.URL.Query().Get("h"), 10)
	if err != nil || h < 1 || h > int64(s.cfg.MaxEnumerate) {
		return "", nil, errBadRequest("h must be in [1, %d]", s.cfg.MaxEnumerate)
	}
	key := fmt.Sprintf("%s|toph|%d", qc.keybase, h)
	return key, func() (any, error) {
		stables, err := qc.analyzer.TopH(r.Context(), int(h))
		if err != nil {
			return nil, err
		}
		return topHResponse{Dataset: qc.name, H: int(h), Rankings: s.stableResponses(qc.ds, stables, 0)}, nil
	}, nil
}

func (s *Server) handleAbove(r *http.Request, qc *queryContext) (string, func() (any, error), error) {
	threshold, err := floatParam(r.URL.Query().Get("s"), -1)
	if err != nil || threshold <= 0 || threshold > 1 {
		return "", nil, errBadRequest("s must be in (0, 1]")
	}
	key := fmt.Sprintf("%s|above|%g", qc.keybase, threshold)
	return key, func() (any, error) {
		stables, err := qc.analyzer.AboveThreshold(r.Context(), threshold)
		if err != nil {
			return nil, err
		}
		return aboveResponse{Dataset: qc.name, Threshold: threshold, Rankings: s.stableResponses(qc.ds, stables, 0)}, nil
	}, nil
}

func (s *Server) handleRankings(r *http.Request, qc *queryContext) (string, func() (any, error), error) {
	q := r.URL.Query()
	page, err := intParam(q.Get("page"), 0)
	if err != nil || page < 0 {
		return "", nil, errBadRequest("page must be >= 0")
	}
	perPage, err := intParam(q.Get("per_page"), 10)
	if err != nil || perPage < 1 || perPage > int64(s.cfg.MaxEnumerate) {
		return "", nil, errBadRequest("per_page must be in [1, %d]", s.cfg.MaxEnumerate)
	}
	// Bound page before multiplying so a huge page value cannot overflow
	// int64 and slip past the enumeration cap.
	if page > int64(s.cfg.MaxEnumerate) {
		return "", nil, errBadRequest("page*per_page exceeds the enumeration cap %d", s.cfg.MaxEnumerate)
	}
	want := (page + 1) * perPage
	if want > int64(s.cfg.MaxEnumerate) {
		return "", nil, errBadRequest("page*per_page exceeds the enumeration cap %d", s.cfg.MaxEnumerate)
	}
	key := fmt.Sprintf("%s|rankings|%d|%d", qc.keybase, page, perPage)
	return key, func() (any, error) {
		// Enumerate one past the page so has_more is exact even when the page
		// is full and the enumeration is exhausted right behind it.
		stables, err := qc.analyzer.TopH(r.Context(), int(want)+1)
		if err != nil {
			return nil, err
		}
		// The enumeration just produced every earlier page as a by-product;
		// cache them all so a client walking backwards (or re-reading) never
		// re-runs the prefix.
		for p := int64(0); p < page; p++ {
			resp := s.rankingsPage(qc, stables, p, perPage)
			if body, err := json.Marshal(resp); err == nil {
				s.cache.put(fmt.Sprintf("%s|rankings|%d|%d", qc.keybase, p, perPage), body)
			}
		}
		return s.rankingsPage(qc, stables, page, perPage), nil
	}, nil
}

// rankingsPage slices page p (per_page entries) out of an enumerated prefix
// that extends at least one entry past the page or to exhaustion.
func (s *Server) rankingsPage(qc *queryContext, stables []stablerank.Stable, p, perPage int64) rankingsResponse {
	start := int(p * perPage)
	resp := rankingsResponse{Dataset: qc.name, Page: int(p), PerPage: int(perPage), Results: []stableResponse{}}
	if start < len(stables) {
		end := min(start+int(perPage), len(stables))
		resp.Results = s.stableResponses(qc.ds, stables[start:end], start)
		resp.HasMore = len(stables) > end && int64(end) == (p+1)*perPage
	}
	return resp
}

func (s *Server) handleItemRank(r *http.Request, qc *queryContext) (string, func() (any, error), error) {
	q := r.URL.Query()
	itemID := q.Get("item")
	if itemID == "" {
		return "", nil, errBadRequest("itemrank requires item (an item id)")
	}
	n, err := intParam(q.Get("n"), 10_000)
	if err != nil || n < 1 || n > int64(s.cfg.MaxSampleCount) {
		return "", nil, errBadRequest("n must be in [1, %d]", s.cfg.MaxSampleCount)
	}
	k, err := intParam(q.Get("k"), 0)
	if err != nil || k < 0 {
		return "", nil, errBadRequest("k must be >= 0")
	}
	key := fmt.Sprintf("%s|itemrank|%s|%d|%d", qc.keybase, itemID, n, k)
	return key, func() (any, error) {
		// Resolved inside the compute closure so cache hits skip the O(N)
		// catalog scan; unknown-item errors are never cached.
		idx, ok := itemIndex(qc.ds, itemID)
		if !ok {
			return nil, errNotFound("item %q not in dataset %q", itemID, qc.name)
		}
		dist, err := qc.analyzer.ItemRankDistribution(r.Context(), idx, int(n))
		if err != nil {
			return nil, err
		}
		counts := make(map[string]int, len(dist.Counts))
		for rnk, c := range dist.Counts { //srlint:ordered map-to-map rekey; json.Marshal renders object keys sorted
			counts[strconv.Itoa(rnk)] = c
		}
		resp := itemRankResponse{
			Dataset: qc.name,
			Item:    itemRef{Index: idx, ID: itemID},
			Samples: dist.Samples,
			Best:    dist.Best,
			Worst:   dist.Worst,
			Mode:    dist.Mode(),
			Median:  dist.Quantile(0.5),
			Counts:  counts,
		}
		if k > 0 {
			resp.ProbabilityTop = map[string]any{
				"k":           k,
				"probability": dist.ProbabilityTopK(int(k)),
			}
		}
		return resp, nil
	}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"status":   "ok",
		"datasets": s.registry.Len(),
		"uptime":   s.now().Sub(s.start).Round(time.Millisecond).String(),
	}
	// scope=local answers for this node only; it is also what peer probes
	// request, so probes never fan out transitively.
	if s.cluster != nil && r.URL.Query().Get("scope") != "local" {
		peers := s.probePeers(r.Context())
		for _, p := range peers {
			if p.Status == "unreachable" {
				resp["status"] = "degraded"
				break
			}
		}
		resp["cluster"] = map[string]any{"self": s.cluster.self, "peers": peers}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.cache.stats()
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	analyzers, builds, dedupHits, inflight, evictions := s.analyzers.snapshot()
	var poolBytes int64
	for _, a := range analyzers {
		poolBytes += a.PoolBytes
	}
	jobs := s.jobs.counts()
	resp := map[string]any{
		"cache": map[string]any{
			"hits":     hits,
			"misses":   misses,
			"size":     size,
			"capacity": s.cfg.CacheSize,
			"hit_rate": hitRate,
		},
		"analyzers": map[string]any{
			"resident":         analyzers,
			"capacity":         s.cfg.MaxAnalyzers,
			"builds":           builds,
			"dedup_hits":       dedupHits,
			"inflight_builds":  inflight,
			"evictions":        evictions,
			"pool_bytes_total": poolBytes,
		},
		"jobs": map[string]any{
			"workers":        s.cfg.JobWorkers,
			"queue_capacity": s.cfg.JobQueueSize,
			"queued":         jobs.queued,
			"active":         jobs.running,
			"resident":       jobs.resident,
			"completed":      jobs.completed,
			"failed":         jobs.failed,
			"cancelled":      jobs.stopped,
		},
		"store":             s.storeStats(),
		"deltas":            s.deltaStats(),
		"streamed_rows":     s.streamedRows.Load(),
		"inflight_requests": s.inflightRequests.Load(),
		"workers":           s.workerCount(),
		"datasets":          s.registry.Names(),
	}
	// The chunk-fill counters: every node serves fills, coordinators also
	// delegate their own builds.
	fill := map[string]any{"worker": s.fillWorker.Stats()}
	if s.coordinator != nil {
		fill["coordinator"] = s.coordinator.Stats()
	}
	resp["fill"] = fill
	// The cluster-wide section fans out to every peer's local stats.
	// ?scope=local suppresses it — which is exactly how the fan-out itself
	// asks, so two clustered nodes never recurse into each other.
	if s.cluster != nil && r.URL.Query().Get("scope") != "local" {
		resp["cluster"] = s.clusterStats(r.Context())
	}
	writeJSON(w, http.StatusOK, resp)
}

// workerCount resolves the configured per-analyzer worker count for display:
// 0 means "all cores", reported as the actual GOMAXPROCS value.
func (s *Server) workerCount() int {
	if s.cfg.Workers > 0 {
		return s.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	type dsInfo struct {
		Name string `json:"name"`
		N    int    `json:"n"`
		D    int    `json:"d"`
	}
	names := s.registry.Names()
	infos := make([]dsInfo, 0, len(names))
	for _, n := range names {
		if ds, _, _, ok := s.registry.Get(n); ok {
			infos = append(infos, dsInfo{Name: n, N: ds.N(), D: ds.D()})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

func (s *Server) handleAddDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	hasHeader := true
	if h := r.URL.Query().Get("header"); h != "" {
		v, err := strconv.ParseBool(h)
		if err != nil {
			writeError(w, errBadRequest("bad header: %v", err))
			return
		}
		hasHeader = v
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	if err := s.registry.AddCSV(name, body, hasHeader); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, statusError{
				code: http.StatusRequestEntityTooLarge,
				msg:  fmt.Sprintf("dataset exceeds the %d-byte upload limit", s.cfg.MaxUploadBytes),
			})
			return
		}
		writeError(w, errBadRequest("loading dataset: %v", err))
		return
	}
	ds, _, _, _ := s.registry.Get(name)
	writeJSON(w, http.StatusCreated, map[string]any{"name": name, "n": ds.N(), "d": ds.D()})
}

// Helpers.

func (s *Server) itemRefs(ds *stablerank.Dataset, order []int) []itemRef {
	limit := min(len(order), s.cfg.MaxRankingItems)
	refs := make([]itemRef, limit)
	for i := 0; i < limit; i++ {
		refs[i] = itemRef{Index: order[i], ID: ds.Item(order[i]).ID}
	}
	return refs
}

func (s *Server) stableResponses(ds *stablerank.Dataset, stables []stablerank.Stable, rankOffset int) []stableResponse {
	out := make([]stableResponse, len(stables))
	for i, st := range stables {
		out[i] = stableResponse{
			Rank:            rankOffset + i + 1,
			Stability:       st.Stability,
			Exact:           st.Exact,
			Items:           s.itemRefs(ds, st.Ranking.Order),
			Weights:         st.Weights,
			ConfidenceError: st.ConfidenceError,
		}
	}
	return out
}

// parseRanking parses comma-separated item IDs into a full ranking of ds.
func parseRanking(s string, ds *stablerank.Dataset) (stablerank.Ranking, error) {
	ids := strings.Split(s, ",")
	if len(ids) != ds.N() {
		return stablerank.Ranking{}, errBadRequest("ranking has %d items, dataset has %d", len(ids), ds.N())
	}
	index := make(map[string]int, ds.N())
	for i := 0; i < ds.N(); i++ {
		index[ds.Item(i).ID] = i
	}
	order := make([]int, len(ids))
	seen := make(map[int]bool, len(ids))
	for i, id := range ids {
		id = strings.TrimSpace(id)
		idx, ok := index[id]
		if !ok {
			return stablerank.Ranking{}, errBadRequest("ranking item %q not in dataset", id)
		}
		if seen[idx] {
			return stablerank.Ranking{}, errBadRequest("ranking repeats item %q", id)
		}
		seen[idx] = true
		order[i] = idx
	}
	return stablerank.Ranking{Order: order}, nil
}

func parseWeights(s string, d int) ([]float64, error) {
	w, err := stablerank.ParseWeights(s, d)
	if err != nil {
		return nil, errBadRequest("%v", err)
	}
	return w, nil
}

func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}

func intParam(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseInt(s, 10, 64)
}
