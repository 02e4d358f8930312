package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"rtsync/internal/experiments"
	"rtsync/internal/obs"
	"rtsync/internal/record"
	"rtsync/internal/workload"
)

// sweepBench is a figure-regeneration workload: each pass sweeps its
// studies over a fixed reduced (N, U) grid into in-memory record stores
// (rtexperiments), replays the stores into fresh views and renders every
// table (rtreport). A pass is identical work every time for one seed.
type sweepBench struct {
	name    string
	workers int   // sweep Parallelism
	horizon int64 // simulation horizon in largest periods (avgeer only)
	setupK  int   // set-ups per timed batch (see setupTimer)
	studies []studyPlan
}

// studyPlan is one registry study swept in every pass over its grid.
type studyPlan struct {
	name    string
	ns      []int
	us      []float64
	systems int // systems per grid cell
}

// configs is the plan's (N, U) grid.
func (sp studyPlan) configs() []workload.Config {
	var cfgs []workload.Config
	for _, n := range sp.ns {
		for _, u := range sp.us {
			cfgs = append(cfgs, workload.DefaultConfig(n, u))
		}
	}
	return cfgs
}

// sweepSim is dominated by simulation (wheel, ready lanes) and, with two
// workers, the ordered-commit turnstile; the analysis layer is a sliver.
var sweepSim = &sweepBench{
	name:    "sweep-sim",
	workers: 2,
	horizon: 5,
	setupK:  25, // ~73 KB each
	studies: []studyPlan{{"avgeer", []int{2, 4, 6, 8}, []float64{0.5, 0.7, 0.9}, 25}},
}

// sweepBounds is dominated by the analyses (SA/DS, SA/PM, holistic,
// MPCP/DPCP, SA/DS on the centralized twin) and never simulates. One
// worker makes it the single-threaded baseline with no turnstile wait.
// It still runs on two Ps: on a 2-vCPU guest its pass times spread about
// half as much between runs as on one P (README.md, "Noise").
//
// The grids avoid heavy-tailed cells, where a rare system iterates about a
// hundred times longer than its neighbours before its bounds fail, so one
// such draw would swing a pass's work with the seed: figures 12 and 13
// stop at N=4 (N=5, U=0.7 has such systems), and the locking study runs
// at U=0.3, below where its centralized twin starts to overload.
var sweepBounds = &sweepBench{
	name:    "sweep-bounds",
	workers: 1,
	setupK:  8, // ~210 KB each
	studies: []studyPlan{
		{"fig12", []int{2, 3, 4}, []float64{0.5, 0.6, 0.7}, 150},
		{"fig13", []int{2, 3, 4}, []float64{0.5, 0.6, 0.7}, 150},
		{"locking", []int{2, 3}, []float64{0.3}, 600},
	},
}

// sweepState is one pass's set-up: the grids, live and replay views, and
// the in-memory stores.
type sweepState struct {
	cfgs    [][]workload.Config
	studies []experiments.Study
	live    []experiments.View
	replay  []experiments.View
	stores  []*bytes.Buffer
	writers []*record.Writer
}

// setup builds the grid, the views and the stores for one pass.
func (b *sweepBench) setup() (*sweepState, error) {
	s := &sweepState{}
	args := experiments.DefaultStudyArgs()
	for _, sp := range b.studies {
		st, ok := experiments.StudyByName(sp.name)
		if !ok {
			return nil, fmt.Errorf("no study %q", sp.name)
		}
		buf := &bytes.Buffer{}
		s.cfgs = append(s.cfgs, sp.configs())
		s.studies = append(s.studies, st)
		s.live = append(s.live, st.New(args))
		s.replay = append(s.replay, st.New(args))
		s.stores = append(s.stores, buf)
		s.writers = append(s.writers, record.NewWriter(buf))
	}
	return s, nil
}

// units is the number of systems one pass commits.
func (b *sweepBench) units() int64 {
	var n int64
	for _, sp := range b.studies {
		n += int64(len(sp.ns) * len(sp.us) * sp.systems)
	}
	return n
}

// sweepProbe holds the program's own counters and spans for a traced pass.
type sweepProbe struct {
	tracer *obs.PipelineTracer
	sim    *obs.SimStats
	an     *obs.AnalysisStats
}

// sweepPass is what one pass measured and produced. elapsed is wall time
// and cpu the process CPU time of the whole pass.
type sweepPass struct {
	elapsed, cpu, replay, render time.Duration
	scale                        float64 // hostClock factor of the pass's interval
	records, storeBytes          int64
	live, tables                 []byte // rendered tables: live views, replayed views
}

// pass runs one figure regeneration: sweep every study into its store,
// replay the stores, render all tables. probe, when non-nil, attaches the
// program's tracer and counters.
func (b *sweepBench) pass(s *sweepState, seed int64, probe *sweepProbe) (*sweepPass, error) {
	args := experiments.DefaultStudyArgs()
	r := &sweepPass{}
	watch := startWatch()
	for i, sp := range b.studies {
		p := experiments.Params{
			Configs:          s.cfgs[i],
			SystemsPerConfig: sp.systems,
			Seed:             seed,
			HorizonPeriods:   b.horizon,
			Parallelism:      b.workers,
			Records:          s.writers[i],
		}
		if probe != nil {
			p.Trace, p.Stats, p.AnalysisStats = probe.tracer, probe.sim, probe.an
		}
		if err := s.studies[i].Run(p, args, s.live[i]); err != nil {
			return nil, err
		}
		if err := s.writers[i].Flush(); err != nil {
			return nil, err
		}
	}
	t1 := time.Now()
	var rec record.CellRecord
	for i := range b.studies {
		rd := record.NewReader(bytes.NewReader(s.stores[i].Bytes()))
		for {
			ok, err := rd.Next(&rec)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			if err := s.replay[i].Apply(&rec); err != nil {
				return nil, err
			}
		}
	}
	t2 := time.Now()
	var live, replayed bytes.Buffer
	for i, st := range s.studies {
		for _, f := range st.Figures {
			for _, o := range f.Outputs {
				if err := o.Table(s.live[i]).Render(&live); err != nil {
					return nil, err
				}
				if err := o.Table(s.replay[i]).Render(&replayed); err != nil {
					return nil, err
				}
			}
		}
	}
	t3 := time.Now()
	r.elapsed, r.cpu = watch.elapsed()
	r.replay, r.render = t2.Sub(t1), t3.Sub(t2)
	for i := range b.studies {
		r.records += s.writers[i].Count()
		r.storeBytes += int64(s.stores[i].Len())
	}
	r.live, r.tables = live.Bytes(), replayed.Bytes()
	return r, nil
}

// tableDigest names a pass's rendered tables.
func tableDigest(tables []byte) string {
	sum := sha256.Sum256(tables)
	return hex.EncodeToString(sum[:8])
}

// tableCheck holds every pass of a run to the same tables: the live sweep
// and the replay must agree byte for byte, every pass must render the same
// digest, and that digest must match the one pinned for the seed, if any.
type tableCheck struct {
	pinned, first string
	units         int64
}

func (c *tableCheck) ok(r *sweepPass) bool {
	d := tableDigest(r.tables)
	if c.first == "" {
		c.first = d
	}
	return bytes.Equal(r.live, r.tables) && d == c.first &&
		(c.pinned == "" || d == c.pinned) && r.records == c.units
}

// passTime is a pass's process CPU time divided by the worker count.
// With one worker that is the pass's CPU time. With two it is what the
// wall time would be if both workers were busy throughout, so it excludes
// steal but also turnstile waits, which experiments.turnstile_wait_frac
// reports instead.
func (b *sweepBench) passTime(r *sweepPass) float64 {
	return seconds(r.cpu) / float64(b.workers)
}

// run measures the workload. Untraced: the median set-up, and per pass the
// units committed per second of pass time and the pass time itself, both
// rescaled to the reference host (see hostClock).
// Traced: untraced and traced passes alternate; the per-layer figures come
// from the traced ones.
func (b *sweepBench) run(cfg runConfig) (*outcome, error) {
	check := &tableCheck{pinned: pinnedDigests[b.name][cfg.seed], units: b.units()}
	out := &outcome{values: map[string]float64{}}
	onePass := func(probe *sweepProbe) (*sweepPass, error) {
		runtime.GC() // every pass starts from the same heap
		s, err := b.setup()
		if err != nil {
			return nil, err
		}
		r, err := b.pass(s, cfg.seed, probe)
		if err != nil {
			return nil, err
		}
		out.attempted += b.units()
		if !check.ok(r) {
			out.failed += b.units()
		}
		r.live, r.tables = nil, nil // checked; keep memory flat across passes
		return r, nil
	}
	if _, err := onePass(nil); err != nil { // warm-up, not measured
		return nil, err
	}
	setup := &setupTimer{k: b.setupK, setup: func() (func(), error) {
		_, err := b.setup()
		return nil, err
	}}

	var plain, traced []*sweepPass
	var layers []map[string]float64
	var unitMS []float64
	clock := &hostClock{workers: b.workers}
	clock.tick()
	start, stat0 := time.Now(), readCPUStat()
	for len(plain) < minPasses(cfg) || time.Since(start) < cfg.seconds {
		r, err := onePass(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, r)
		newSetups := len(setup.samples)
		if !cfg.trace {
			if err := setup.time(setupBatchesPerPass); err != nil {
				return nil, err
			}
		} else {
			probe := &sweepProbe{tracer: obs.NewPipelineTracer(), sim: obs.NewSimStats(), an: obs.NewAnalysisStats()}
			t, err := onePass(probe)
			if err != nil {
				return nil, err
			}
			traced = append(traced, t)
			m, units, err := sweepLayers(t, probe)
			if err != nil {
				return nil, err
			}
			layers = append(layers, m)
			unitMS = append(unitMS, units...)
		}
		clock.tick()
		r.scale = clock.scale(len(plain) - 1)
		for i := newSetups; i < len(setup.samples); i++ {
			setup.samples[i] *= r.scale
		}
	}
	thr := func(ps []*sweepPass, scaled bool) float64 {
		var xs []float64
		for _, p := range ps {
			t := b.passTime(p)
			if scaled {
				t *= p.scale
			}
			xs = append(xs, float64(b.units())/t)
		}
		return median(xs)
	}
	var wallPerCPU []float64
	for _, p := range plain {
		wallPerCPU = append(wallPerCPU, seconds(p.elapsed)/b.passTime(p))
	}
	steal := stealFrac(stat0, readCPUStat())
	fmt.Fprintf(os.Stderr, "%s seed %d: %d passes, tables %s (pinned %q), host steal %.1f%%, wall/pass time %.3f, calibrate %.1f ms, unscaled throughput %.1f/s\n",
		b.name, cfg.seed, len(plain)+len(traced)+1, check.first, check.pinned, 100*steal, median(wallPerCPU), 1000*median(clock.ticks), thr(plain, false))
	if !cfg.trace {
		var lat []float64
		for _, p := range plain {
			lat = append(lat, 1000*b.passTime(p)*p.scale)
		}
		out.values["setup_s"] = median(setup.samples)
		out.values["throughput_per_s"] = thr(plain, true)
		out.values["latency_p50_ms"] = quantile(lat, 0.5)
		out.values["latency_p99_ms"] = quantile(lat, 0.99)
		return out, nil
	}
	if !sameCounts(layers) {
		out.failed++ // a count that should be exact moved between passes
	}
	for name := range layers[0] {
		var xs []float64
		for _, m := range layers {
			xs = append(xs, m[name])
		}
		out.values[name] = median(xs)
	}
	out.values["experiments.unit_p50_ms"] = quantile(unitMS, 0.5)
	out.values["experiments.unit_p99_ms"] = quantile(unitMS, 0.99)
	out.values["host.calib_s"] = median(clock.ticks)
	out.values["host.steal_frac"] = steal
	out.values["host.wall_per_cpu"] = median(wallPerCPU)
	out.values["trace_overhead_frac"] = 1 - thr(traced, false)/thr(plain, false)
	return out, nil
}

// sweepLayers reads one traced pass's spans and counters into per-layer
// metrics, and returns its unit span durations in ms.
func sweepLayers(r *sweepPass, probe *sweepProbe) (map[string]float64, []float64, error) {
	phase := map[string]float64{}
	spans := map[string]int64{}
	for _, ph := range probe.tracer.Summary().Phases {
		phase[ph.Phase] = float64(ph.TotalNS) / 1e9
		spans[ph.Phase] = ph.Count
	}
	fmt.Fprintf(os.Stderr, "traced pass: worker %.3fs = simulate %.1f%% (%d spans), analyze %.1f%% (%d spans), turnstile-wait %.1f%%\n",
		phase["worker"], 100*ratio(phase["simulate"], phase["worker"]), spans["simulate"],
		100*ratio(phase["analyze"], phase["worker"]), spans["analyze"], 100*ratio(phase["turnstile-wait"], phase["worker"]))
	ss := probe.sim.Snapshot()
	as := probe.an.Snapshot()
	var outer float64
	if as.OuterIters != nil {
		outer = float64(as.OuterIters.Sum)
	}
	demand := float64(as.FixpointSolves)
	if as.FixpointIters != nil {
		demand = float64(as.FixpointIters.Sum)
	}
	m := map[string]float64{
		"workload.generate_s":             phase["generate"],
		"experiments.turnstile_wait_frac": ratio(phase["turnstile-wait"], phase["worker"]),
		"experiments.commit_s":            phase["commit"],
		"analysis.analyze_s":              phase["analyze"],
		"analysis.fixpoint_solves":        float64(as.FixpointSolves),
		"analysis.demand_evals":           demand,
		"analysis.outer_passes":           outer,
		"analysis.ns_per_demand_eval":     ratio(phase["analyze"]*1e9, demand),
		"analysis.cache_hit_ratio":        ratio(float64(as.CacheHits), float64(as.CacheHits+as.CacheMisses)),
		"analysis.subtask_reuse_ratio":    ratio(float64(as.SubtasksReused), float64(as.SubtasksReused+as.SubtasksRecomputed)),
		"sim.simulate_s":                  phase["simulate"],
		"sim.runs":                        float64(ss.Runs),
		"sim.events":                      float64(ss.EventsTotal),
		"sim.ns_per_event":                ratio(phase["simulate"]*1e9, float64(ss.EventsTotal)),
		"sim.wheel_cascades":              float64(ss.WheelCascades),
		"sim.queue_high_water":            float64(ss.EventQueueHighWater),
		"sim.preemptions":                 float64(ss.Preemptions),
		"sim.context_switches":            float64(ss.ContextSwitches),
		"sim.rg_stalls":                   float64(ss.ReleaseGuardStalls),
		"record.records":                  float64(r.records),
		"record.store_bytes":              float64(r.storeBytes),
		"record.replay_s":                 seconds(r.replay),
		"report.render_s":                 seconds(r.render),
	}
	units, err := unitSpansMS(probe.tracer)
	return m, units, err
}

// unitSpansMS extracts every "unit" span's duration (ms) from the
// tracer's Perfetto export.
func unitSpansMS(t *obs.PipelineTracer) ([]float64, error) {
	var buf bytes.Buffer
	if err := t.WritePerfetto(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur"` // µs
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("decode pipeline trace: %w", err)
	}
	var ms []float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "unit" {
			ms = append(ms, ev.Dur/1000)
		}
	}
	return ms, nil
}
