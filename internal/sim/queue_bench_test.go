package sim

import (
	"math/rand"
	"testing"

	"rtsync/internal/model"
)

// benchDeltas pre-generates the push offsets for the event-queue benchmark:
// a mix of short dispatch-scale gaps and period-scale jumps, matching the
// engine's steady-state profile (mostly near-future completions and timers,
// occasional next-period releases). Pre-generated so the RNG stays out of
// the measured loop.
func benchDeltas(n int) []model.Duration {
	rng := rand.New(rand.NewSource(42))
	out := make([]model.Duration, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = model.Duration(1000 + rng.Intn(100000)) // period scale
		} else {
			out[i] = model.Duration(rng.Intn(200)) // dispatch scale
		}
	}
	return out
}

// BenchmarkEventQueuePushPop measures the hold model — pop the minimum,
// push a successor — that dominates the engine's queue traffic, at a
// steady occupancy of 32 events.
func BenchmarkEventQueuePushPop(b *testing.B) {
	const hold = 32
	deltas := benchDeltas(1024)
	for _, tc := range []struct {
		name string
		newQ func() testQueue
	}{
		{"heap", func() testQueue { return new(refHeap) }},
		{"wheel", func() testQueue { return new(timingWheel) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := tc.newQ()
			var seq int64
			for i := 0; i < hold; i++ {
				seq++
				q.push(&event{at: model.Time(i), kind: int8(i % int(numKinds)), seq: seq})
			}
			b.ReportAllocs()
			b.ResetTimer()
			var ev event
			for i := 0; i < b.N; i++ {
				q.pop(&ev)
				seq++
				ev.at = ev.at.Add(deltas[i&1023])
				ev.seq = seq
				q.push(&ev)
			}
		})
	}
}

// BenchmarkReadyQueueDispatch measures the dispatch cycle — pop the most
// urgent job, requeue it as its next instance — at a steady backlog of 24
// jobs over 8 priority levels.
func BenchmarkReadyQueueDispatch(b *testing.B) {
	const backlog = 24
	for _, tc := range []struct {
		name string
		hi   model.Priority // a range of maxLanes levels takes the heap
	}{
		{"heap", maxLanes},
		{"bitmap", 8},
	} {
		b.Run(tc.name, func(b *testing.B) {
			q := new(readyQueue)
			q.reset(readyParams{lo: 0, hi: tc.hi})
			jobs := make([]Job, backlog)
			for i := range jobs {
				jobs[i] = Job{
					ID:       model.SubtaskID{Task: i % 6, Sub: i / 6},
					base:     model.Priority(1 + i%8),
					eff:      model.Priority(1 + i%8),
					deadline: model.TimeInfinity,
				}
				q.push(&jobs[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := q.pop()
				j.Instance++
				q.push(j)
			}
		})
	}
}
