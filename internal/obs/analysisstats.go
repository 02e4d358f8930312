package obs

// AnalysisStats collects analyzer counters across one or more analysis
// runs: fixed-point iteration histograms, result-cache traffic, and
// incremental-delta reuse.
// Like SimStats it is shared state — a sweep attaches one AnalysisStats to
// every worker's Analyzer, rtsyncd attaches one to its workspace — so all
// fields are padded atomics and every producer hook is guarded by a nil
// check on the concrete *AnalysisStats.
type AnalysisStats struct {
	// fixpointIters is the distribution of demand-iteration counts per
	// inner fixed-point solve; outerIters the distribution of outer
	// Jacobi/Gauss-Seidel passes per iterative analysis (SA/DS, holistic,
	// MPCP, DPCP).
	fixpointIters Histogram
	outerIters    Histogram
	warmSolves    Counter

	cacheHits      Counter
	cacheMisses    Counter
	cacheEvictions Counter

	deltaAnalyses       Counter
	dirtyProcRecomputes Counter
	cleanProcReuses     Counter
	subtasksRecomputed  Counter
	subtasksReused      Counter
}

// NewAnalysisStats returns a zeroed counter bank.
func NewAnalysisStats() *AnalysisStats { return &AnalysisStats{} }

// ObserveFixpoint records one inner fixed-point solve that took iters
// demand evaluations; warm marks solves that started from a nonzero seed
// (the previous instance's completion time).
func (s *AnalysisStats) ObserveFixpoint(iters int64, warm bool) {
	s.fixpointIters.Observe(iters)
	if warm {
		s.warmSolves.Inc()
	}
}

// ObserveOuter records one completed iterative analysis that converged (or
// gave up) after iters outer passes.
func (s *AnalysisStats) ObserveOuter(iters int64) { s.outerIters.Observe(iters) }

// NoteCacheHit counts one result served from the memoization cache.
func (s *AnalysisStats) NoteCacheHit() { s.cacheHits.Inc() }

// NoteCacheMiss counts one cache lookup that had to analyze.
func (s *AnalysisStats) NoteCacheMiss() { s.cacheMisses.Inc() }

// NoteCacheEviction counts one LRU entry displaced by an insert.
func (s *AnalysisStats) NoteCacheEviction() { s.cacheEvictions.Inc() }

// NoteDelta records one incremental re-analysis: dirty processors were
// re-solved, clean processors reused, and likewise for subtask bounds.
func (s *AnalysisStats) NoteDelta(dirtyProcs, cleanProcs, recomputed, reused int64) {
	s.deltaAnalyses.Inc()
	s.dirtyProcRecomputes.Add(dirtyProcs)
	s.cleanProcReuses.Add(cleanProcs)
	s.subtasksRecomputed.Add(recomputed)
	s.subtasksReused.Add(reused)
}

// CacheHits returns the hit count so far (tests and smoke assertions).
func (s *AnalysisStats) CacheHits() int64 { return s.cacheHits.Load() }

// CacheMisses returns the miss count so far.
func (s *AnalysisStats) CacheMisses() int64 { return s.cacheMisses.Load() }

// DirtyProcRecomputes returns the total processors re-solved by
// incremental deltas.
func (s *AnalysisStats) DirtyProcRecomputes() int64 { return s.dirtyProcRecomputes.Load() }

// CleanProcReuses returns the total processors reused by incremental
// deltas.
func (s *AnalysisStats) CleanProcReuses() int64 { return s.cleanProcReuses.Load() }

// FixpointSolves returns the number of inner solves observed so far.
func (s *AnalysisStats) FixpointSolves() int64 { return s.fixpointIters.n.Load() }

// FixpointIterTotal returns the summed demand evaluations across all
// observed solves — the numerator of the mean iteration count.
func (s *AnalysisStats) FixpointIterTotal() int64 { return s.fixpointIters.sum.Load() }

// AnalysisSnapshot is a point-in-time plain-value view of an
// AnalysisStats, shaped for JSON (manifests, the expvar endpoint).
type AnalysisSnapshot struct {
	// FixpointSolves counts inner fixed-point solves; FixpointIters is
	// the distribution of their demand-evaluation counts. WarmSolves is
	// the subset handed a nonzero warm seed.
	FixpointSolves int64              `json:"fixpoint_solves"`
	FixpointIters  *HistogramSnapshot `json:"fixpoint_iters,omitempty"`
	WarmSolves     int64              `json:"warm_solves,omitempty"`
	// OuterAnalyses counts iterative analyses; OuterIters the
	// distribution of their outer pass counts.
	OuterAnalyses int64              `json:"outer_analyses,omitempty"`
	OuterIters    *HistogramSnapshot `json:"outer_iters,omitempty"`
	// Cache traffic of an attached ResultCache.
	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	CacheEvictions int64 `json:"cache_evictions,omitempty"`
	// Incremental-delta reuse: per delta, processors re-solved vs kept
	// and subtask bounds recomputed vs copied.
	DeltaAnalyses       int64 `json:"delta_analyses,omitempty"`
	DirtyProcRecomputes int64 `json:"dirty_proc_recomputes,omitempty"`
	CleanProcReuses     int64 `json:"clean_proc_reuses,omitempty"`
	SubtasksRecomputed  int64 `json:"subtasks_recomputed,omitempty"`
	SubtasksReused      int64 `json:"subtasks_reused,omitempty"`
}

// Snapshot captures the current counter values. Concurrent writers may
// advance counters between loads; each individual value is exact.
func (s *AnalysisStats) Snapshot() AnalysisSnapshot {
	snap := AnalysisSnapshot{
		FixpointSolves:      s.fixpointIters.n.Load(),
		WarmSolves:          s.warmSolves.Load(),
		OuterAnalyses:       s.outerIters.n.Load(),
		CacheHits:           s.cacheHits.Load(),
		CacheMisses:         s.cacheMisses.Load(),
		CacheEvictions:      s.cacheEvictions.Load(),
		DeltaAnalyses:       s.deltaAnalyses.Load(),
		DirtyProcRecomputes: s.dirtyProcRecomputes.Load(),
		CleanProcReuses:     s.cleanProcReuses.Load(),
		SubtasksRecomputed:  s.subtasksRecomputed.Load(),
		SubtasksReused:      s.subtasksReused.Load(),
	}
	if snap.FixpointSolves > 0 {
		h := s.fixpointIters.Snapshot()
		snap.FixpointIters = &h
	}
	if snap.OuterAnalyses > 0 {
		h := s.outerIters.Snapshot()
		snap.OuterIters = &h
	}
	return snap
}
