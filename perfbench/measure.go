package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow reads the process's CPU clock (CLOCK_PROCESS_CPUTIME_ID): time
// its threads spent running, in user and kernel mode. Unlike wall time it
// does not count time the hypervisor stole from the machine's CPUs, which
// is the main noise on shared hosts (see README.md).
func cpuNow() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// stopwatch reads wall and process CPU time together.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuNow()} }

// elapsed returns the wall and CPU time since the watch started.
func (s stopwatch) elapsed() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuNow() - s.cpu
}

// setupTimer measures setup_s. A batch times k consecutive set-ups in
// process CPU time, starting from a full collection; k is small enough
// that a batch allocates about 2 MB, below the collector's minimum heap
// goal, so no collection runs inside it. Set-up is mostly zeroing fresh
// buffers, which follows the host's speed closely, and that speed drifts
// within seconds, so batches are spread over the whole run, a few after
// each pass, not taken in one burst. The runs rescale each batch by its
// pass's hostClock factor; setup_s is the median batch divided by k.
type setupTimer struct {
	k       int
	setup   func() (release func(), err error) // release may be nil
	samples []float64
}

// time runs and times the given number of batches.
func (t *setupTimer) time(batches int) error {
	release := make([]func(), 0, t.k)
	for b := 0; b < batches; b++ {
		runtime.GC()
		t0 := cpuNow()
		for i := 0; i < t.k; i++ {
			done, err := t.setup()
			if err != nil {
				return err
			}
			release = append(release, done)
		}
		t.samples = append(t.samples, seconds(cpuNow()-t0)/float64(t.k))
		for _, done := range release {
			if done != nil {
				done()
			}
		}
		release = release[:0]
	}
	return nil
}

// setupBatchesPerPass is how many set-up batches follow each measured pass.
const setupBatchesPerPass = 3

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). It is 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// minPasses is the fewest measured passes a run makes, however short its
// window: three for a median, or two untraced and two traced.
func minPasses(cfg runConfig) int {
	if cfg.trace {
		return 2
	}
	return 3
}

// exactCounts are the per-layer values that must repeat exactly for one
// seed: every pass of a run, and every run, must agree on them.
var exactCounts = []string{
	"analysis.fixpoint_solves", "analysis.demand_evals", "analysis.outer_passes",
	"analysis.cache_hit_ratio", "analysis.subtask_reuse_ratio",
	"sim.runs", "sim.events", "sim.wheel_cascades", "sim.queue_high_water",
	"sim.preemptions", "sim.context_switches", "sim.rg_stalls",
	"record.records", "record.store_bytes",
	"admission.cache_count", "admission.incremental_count", "admission.full_count",
	"admission.commits", "admission.rejected_commits",
}

// sameCounts reports whether every pass measured the same exact counts.
func sameCounts(layers []map[string]float64) bool {
	for _, m := range layers[1:] {
		for _, name := range exactCounts {
			if m[name] != layers[0][name] {
				return false
			}
		}
	}
	return true
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// calibSink keeps the calibration kernel's results observable.
var calibSink atomic.Uint64

// calibBuf holds the buffers the calibration kernel zeroes, one per
// goroutine.
var calibBuf [2][256 << 10]byte

// calibrate times, in process CPU time like the end-to-end metrics, a
// fixed amount of work that uses none of rtsync's code, run on the given
// number of goroutines at once and divided by that number, as a sweep's
// pass time is. The work imitates what the workloads spend their time
// on: integer fixed points shaped like the analyses' demand iteration,
// random updates to a 512 KiB table, and zeroing memory as set-up does.
// Its drift across runs is the host's drift: a program change cannot move
// it.
func calibrate(workers int) time.Duration {
	t0 := cpuNow()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			calibSink.Add(calibWork(uint64(w), &calibBuf[w%len(calibBuf)]))
		}(w)
	}
	wg.Wait()
	return (cpuNow() - t0) / time.Duration(workers)
}

// calibWork is one goroutine's share of calibrate.
func calibWork(seed uint64, buf *[256 << 10]byte) uint64 {
	x := uint64(88172645463325252) ^ seed
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	var acc uint64
	// t = base + Σ ceil((t+J)/p)·e at about 70% utilization.
	var per, exec, jit [12]int64
	for sys := 0; sys < 40_000; sys++ {
		k := 3 + int(next()%10)
		for i := 0; i < k; i++ {
			per[i] = 1000 + int64(next()%100_000)
			exec[i] = 1 + per[i]*7/(10*int64(k+1))
			jit[i] = int64(next() % uint64(per[i]))
		}
		base := 1 + int64(next()%1000)
		t := base
		for it := 0; it < 200; it++ {
			d := base
			for i := 0; i < k; i++ {
				d += exec[i] * ((t + jit[i] + per[i] - 1) / per[i])
			}
			if d == t {
				break
			}
			t = d
		}
		acc += uint64(t)
	}
	table := make([]uint64, 1<<16)
	for i := 0; i < 2_000_000; i++ {
		v := next()
		table[v&(1<<16-1)] += v
	}
	acc += table[7]
	for i := 0; i < 64; i++ {
		clear(buf[:])
		buf[i] = byte(i)
		acc += uint64(buf[i])
	}
	return acc
}

// calibRef is calibrate's median time on the host the benchmark's bounds
// were set on (a 2-vCPU Intel Xeon guest).
const calibRef = 20 * time.Millisecond

// hostClock rescales CPU times taken on a host whose speed drifts to the
// reference host's. On a shared virtual machine the guest's CPU time for
// fixed work moves by tens of percent within minutes, because other
// guests share its caches, memory bandwidth and hyperthread siblings (see
// README.md). A run calibrates once before its first measured pass and
// once after each pass and the set-ups that follow it, so interval i lies
// between ticks i and i+1. scale(i) = calibRef ÷ the mean of those two
// ticks: a time measured in interval i, multiplied by it, is the time the
// same work would have taken at the reference host's speed.
type hostClock struct {
	workers int
	ticks   []float64 // calibrate times in seconds
}

// tick calibrates once.
func (h *hostClock) tick() { h.ticks = append(h.ticks, seconds(calibrate(h.workers))) }

// scale returns interval i's factor; ticks i and i+1 must have been taken.
func (h *hostClock) scale(i int) float64 {
	return seconds(calibRef) / ((h.ticks[i] + h.ticks[i+1]) / 2)
}

// cpuStat is the machine-wide CPU time split from /proc/stat, in ticks.
type cpuStat struct{ steal, total uint64 }

// readCPUStat reads the aggregate "cpu" line of /proc/stat; it is zero
// where the file does not exist.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealFrac is the share of CPU time the hypervisor took from this
// machine between two readings: time the workload lost to the host.
func stealFrac(a, b cpuStat) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.total-a.total))
}

// peakRSSMB is the process's peak resident set size in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
