package analysis

import (
	"rtsync/internal/model"
)

// Incremental re-analysis after a task-set delta. The caller Resets the
// Analyzer on the NEW system, then hands the previous system's converged
// bounds plus the set of processors the delta touched; only the delta's
// dependency closure is recomputed, everything else is copied from prev.
//
// Soundness and exactness hinge on the processor structure of the
// analyses. A subtask's recurrence reads (a) its chain predecessor's bound
// and (b) the bounds of the predecessors of its same-processor
// interferers. A delta confined to the tasks whose subtasks live on the
// dirty processors can therefore change a clean subtask's inputs only
// through a chain of those edges — exactly the consumer edges (consBuf)
// the SA/DS worklist already maintains. Subtasks outside the forward
// closure of the dirty processors have provably unchanged fixed-point
// components, so copying their previous bounds and never re-evaluating
// them reproduces the full analysis bit for bit; subtasks inside the
// closure restart from the optimistic seed, and the monotone worklist
// converges to the restriction of the global least fixed point (the clean
// bounds act as constants).

// DirtyProcs marks, in dst, every processor hosting a subtask of task t in
// system s (dst must have len(s.Procs); existing marks are kept, so calls
// accumulate across the old and new versions of changed tasks). It returns
// dst.
func DirtyProcs(dst []bool, s *model.System, t int) []bool {
	for j := range s.Tasks[t].Subtasks {
		dst[s.Tasks[t].Subtasks[j].Proc] = true
	}
	return dst
}

// AnalyzeDSFrom reruns Algorithm SA/DS assuming prev holds the converged
// SA/DS IEER bounds (Result.Bounds[i].Response, dense order) of a system
// identical to the Reset one outside the tasks hosted on dirtyProc
// processors. prev must have length ix.Len() and not alias the Analyzer's
// internals. The returned bounds equal a full AnalyzeDS bit for bit;
// Result.Iterations counts only the incremental passes, so it is NOT
// comparable to the full run's count.
//
// StopOnFailure runs degrade to a full AnalyzeDS: early poisoning makes
// intermediate bounds meaningless as prev inputs, so there is nothing
// sound to reuse.
func (a *Analyzer) AnalyzeDSFrom(prev []model.Duration, dirtyProc []bool) *Result {
	if a.opts.StopOnFailure {
		return a.AnalyzeDS()
	}
	n := a.ix.Len()
	r := a.cur[:n]

	// Seed: everything on a dirty processor restarts from the optimistic
	// prefix-execution seed and enters the BFS stack; everything else
	// keeps its previous converged bound until the closure pass below
	// proves it reachable.
	stack := a.incStack[:0]
	for i := 0; i < n; i++ {
		a.nextDirty[i] = false
		if dirtyProc[a.sys.Subtask(a.ix.ID(i)).Proc] {
			a.dirty[i] = true
			stack = append(stack, int32(i))
		} else {
			a.dirty[i] = false
		}
	}
	// Forward closure over consumer edges: any subtask reading a dirty
	// bound must itself restart (its old value may exceed the new least
	// fixed point — e.g. after a task removal — and a chaotic iteration
	// started above the lfp need not find it).
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range a.consBuf[a.consOff[i]:a.consOff[i+1]] {
			if !a.dirty[c] {
				a.dirty[c] = true
				stack = append(stack, c)
			}
		}
	}
	a.incStack = stack

	recomputed := 0
	for i := 0; i < n; i++ {
		if a.dirty[i] {
			r[i] = a.prefixExec[i]
			recomputed++
		} else {
			r[i] = prev[i]
		}
	}
	if a.Stats != nil {
		dirtyProcs := int64(0)
		for _, d := range dirtyProc {
			if d {
				dirtyProcs++
			}
		}
		a.Stats.NoteDelta(dirtyProcs, int64(len(dirtyProc))-dirtyProcs,
			int64(recomputed), int64(n-recomputed))
	}
	return a.runDS(&a.ds, r, recomputed)
}

// AnalyzePMFrom reruns Algorithm SA/PM reusing prev (the previous system's
// Result.Bounds, dense order) for every subtask on a clean processor.
// SA/PM charges no release jitter, so a subtask's bound depends only on
// its own processor's task set — no closure is needed and the dirty set is
// exactly the dirty processors' subtasks.
func (a *Analyzer) AnalyzePMFrom(prev []SubtaskBound, dirtyProc []bool) *Result {
	res := &a.pm
	res.Iterations = 1
	recomputed := 0
	n := a.ix.Len()
	for i := 0; i < n; i++ {
		if dirtyProc[a.sys.Subtask(a.ix.ID(i)).Proc] {
			res.Bounds[i] = a.pmSubtask(i)
			recomputed++
		} else {
			res.Bounds[i] = prev[i]
		}
	}
	s := a.sys
	for t := range s.Tasks {
		off := a.ix.TaskOffset(t)
		eer := model.Duration(0)
		for j := 0; j < a.ix.ChainLen(t); j++ {
			eer = eer.AddSat(res.Bounds[off+j].Response)
		}
		if eer > a.failCap[off] {
			eer = model.Infinite
		}
		res.TaskEER[t] = eer
	}
	if a.Stats != nil {
		dirtyProcs := int64(0)
		for _, d := range dirtyProc {
			if d {
				dirtyProcs++
			}
		}
		a.Stats.NoteDelta(dirtyProcs, int64(len(dirtyProc))-dirtyProcs,
			int64(recomputed), int64(n-recomputed))
	}
	return res
}
