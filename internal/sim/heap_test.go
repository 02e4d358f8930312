package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rtsync/internal/model"
)

// testQueue is the push/pop surface the timing wheel and refHeap share, so
// one test body can drive either.
type testQueue interface {
	push(ev *event)
	pop(dst *event)
	len() int
}

// refHeap adapts eventHeap to the wheel's pointer-based push/pop. It is the
// reference order the wheel is checked against.
type refHeap struct{ eventHeap }

func (h *refHeap) push(ev *event) { h.eventHeap.push(*ev) }
func (h *refHeap) pop(dst *event) { *dst = h.eventHeap.pop() }

// eventQueueOrderingProperty: popping an event queue always yields events
// sorted by (time, kind, seq), whatever the insertion order. Exercised
// against the wheel and the heap.
func eventQueueOrderingProperty(t *testing.T, newQueue func() testQueue) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := newQueue()
		n := 50 + rng.Intn(100)
		for i := 0; i < n; i++ {
			q.push(&event{
				at:   model.Time(rng.Intn(20)),
				kind: int8(rng.Intn(3)),
				seq:  int64(i),
			})
		}
		var prev *event
		for q.len() > 0 {
			var ev event
			q.pop(&ev)
			if prev != nil {
				if ev.at < prev.at {
					return false
				}
				if ev.at == prev.at && ev.kind < prev.kind {
					return false
				}
				if ev.at == prev.at && ev.kind == prev.kind && ev.seq < prev.seq {
					return false
				}
			}
			prev = &ev
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventHeapOrderingProperty(t *testing.T) {
	eventQueueOrderingProperty(t, func() testQueue { return new(refHeap) })
}

func TestEventWheelOrderingProperty(t *testing.T) {
	eventQueueOrderingProperty(t, func() testQueue { return new(timingWheel) })
}

// TestEventWheelFarFutureOrdering drives timestamps across window and block
// boundaries — cascades and the overflow heap — interleaving pushes with
// pops the way the engine does (pushes never precede the last popped time).
func TestEventWheelFarFutureOrdering(t *testing.T) {
	deltas := []int64{0, 1, 63, 64, 65, 4095, 4096, 262144, wheelSpan - 1,
		wheelSpan, wheelSpan + 7, 3 * wheelSpan, 1 << 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var wheel timingWheel
		var heap refHeap
		var seq int64
		var now model.Time
		for i := 0; i < 400; i++ {
			if heap.len() == 0 || rng.Intn(3) > 0 {
				seq++
				ev := event{
					at:   now.Add(model.Duration(deltas[rng.Intn(len(deltas))])),
					kind: int8(rng.Intn(3)),
					seq:  seq,
				}
				wheel.push(&ev)
				heap.push(&ev)
				continue
			}
			var a, b event
			wheel.pop(&a)
			heap.pop(&b)
			if a.at != b.at || a.kind != b.kind || a.seq != b.seq {
				return false
			}
			now = a.at
		}
		for heap.len() > 0 {
			var a, b event
			wheel.pop(&a)
			heap.pop(&b)
			if a.at != b.at || a.kind != b.kind || a.seq != b.seq {
				return false
			}
		}
		return wheel.len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// readyQueueFor builds a ready queue whose implementation the engine's
// input-driven selection picks: the tests' jobs use priorities 0..7, a
// narrow range 0..8 takes the bitmap lanes, and the range 0..maxLanes (or
// EDF at any range) takes the heap.
func readyQueueFor(edf, narrow bool) *readyQueue {
	hi := model.Priority(8)
	if !narrow {
		hi = maxLanes
	}
	q := new(readyQueue)
	q.reset(readyParams{edf: edf, lo: 0, hi: hi})
	return q
}

// readyQueueFixedPriorityProperty: the ready queue pops jobs in
// non-increasing active priority, with the deterministic tie-break.
func readyQueueFixedPriorityProperty(t *testing.T, lanes bool) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := readyQueueFor(false, lanes)
		if q.useLanes != lanes {
			return false
		}
		n := 20 + rng.Intn(50)
		for i := 0; i < n; i++ {
			q.push(&Job{
				ID:       model.SubtaskID{Task: rng.Intn(3), Sub: 0},
				Instance: int64(rng.Intn(10)),
				base:     model.Priority(rng.Intn(5)),
				deadline: model.TimeInfinity,
			})
		}
		var prev *Job
		for !q.empty() {
			j := q.pop()
			if prev != nil {
				if j.active() > prev.active() {
					return false
				}
				if j.active() == prev.active() && jobTieLess(j, prev) {
					return false
				}
			}
			prev = j
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReadyQueueFixedPriorityProperty(t *testing.T) {
	readyQueueFixedPriorityProperty(t, false)
}

func TestReadyLanesFixedPriorityProperty(t *testing.T) {
	readyQueueFixedPriorityProperty(t, true)
}

// TestReadyLanesMatchHeap: lanes and heap pop identical jobs under random
// push/pop interleavings, including duplicate priorities and ties.
func TestReadyLanesMatchHeap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lanes := readyQueueFor(false, true)
		heap := readyQueueFor(false, false)
		if !lanes.useLanes || heap.useLanes {
			return false
		}
		for i := 0; i < 300; i++ {
			if heap.empty() || rng.Intn(3) > 0 {
				j := &Job{
					ID:       model.SubtaskID{Task: rng.Intn(4), Sub: rng.Intn(3)},
					Instance: int64(rng.Intn(6)),
					base:     model.Priority(rng.Intn(8)),
					eff:      model.Priority(rng.Intn(8)),
					started:  rng.Intn(2) == 0,
					deadline: model.TimeInfinity,
				}
				if j.eff < j.base {
					j.base, j.eff = j.eff, j.base
				}
				// Two facades cannot share one intrusive job; give the
				// heap a copy and compare by value.
				cp := *j
				lanes.push(j)
				heap.push(&cp)
				continue
			}
			if lanes.peek().Key() != heap.peek().Key() {
				return false
			}
			a, b := lanes.pop(), heap.pop()
			if a.Key() != b.Key() || a.active() != b.active() {
				return false
			}
		}
		return lanes.len() == heap.len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// readyQueueEDFProperty: under EDF the queue pops by non-decreasing
// absolute deadline (EDF always routes to the heap implementation).
func TestReadyQueueEDFProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := readyQueueFor(true, true)
		if q.useLanes {
			return false // EDF must select the heap
		}
		n := 20 + rng.Intn(50)
		var deadlines []model.Time
		for i := 0; i < n; i++ {
			d := model.Time(rng.Intn(100))
			deadlines = append(deadlines, d)
			q.push(&Job{
				ID:       model.SubtaskID{Task: rng.Intn(3), Sub: 0},
				Instance: int64(i),
				deadline: d,
			})
		}
		sort.Slice(deadlines, func(i, j int) bool { return deadlines[i] < deadlines[j] })
		for k := 0; !q.empty(); k++ {
			if q.pop().deadline != deadlines[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestReadyQueuePeekMatchesPop: peek never disagrees with the next pop, in
// either implementation.
func TestReadyQueuePeekMatchesPop(t *testing.T) {
	for _, lanes := range []bool{false, true} {
		kind := "heap"
		if lanes {
			kind = "lanes"
		}
		rng := rand.New(rand.NewSource(12))
		q := readyQueueFor(false, lanes)
		if q.peek() != nil {
			t.Errorf("%v: peek on empty queue should be nil", kind)
		}
		for i := 0; i < 100; i++ {
			q.push(&Job{
				ID:       model.SubtaskID{Task: rng.Intn(3), Sub: 0},
				Instance: int64(i),
				base:     model.Priority(rng.Intn(4)),
				deadline: model.TimeInfinity,
			})
		}
		if q.len() != 100 {
			t.Errorf("%v: len = %d, want 100", kind, q.len())
		}
		for !q.empty() {
			want := q.peek()
			if got := q.pop(); got != want {
				t.Fatalf("%v: peek disagreed with pop", kind)
			}
		}
	}
}

// TestReadyQueueWideRangeFallsBack: a priority span past the bitmap's 64
// lanes must select the heap, not truncate.
func TestReadyQueueWideRangeFallsBack(t *testing.T) {
	q := new(readyQueue)
	q.reset(readyParams{lo: 0, hi: 1000})
	if q.useLanes {
		t.Fatal("range 0..1000 should fall back to the heap")
	}
	q.reset(readyParams{lo: 1000, hi: 1063})
	if !q.useLanes {
		t.Fatal("dense 64-level range should use the lanes")
	}
}

// TestJobActivePriority: active() switches from base to effective at start.
func TestJobActivePriority(t *testing.T) {
	j := &Job{base: 2, eff: 5}
	if j.active() != 2 {
		t.Errorf("unstarted active = %v, want base 2", j.active())
	}
	j.started = true
	if j.active() != 5 {
		t.Errorf("started active = %v, want eff 5", j.active())
	}
}
