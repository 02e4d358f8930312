// Command perfbench is rtsync's end-to-end benchmark. It drives the two
// things a user of rtsync waits for — regenerating paper figures (sweep,
// record store, replay, render) and getting an admission verdict from the
// rtsyncd service — and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sweep-sim --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with every
// tracing hook off; with --trace 1 they are the per-layer ones, taken from
// a separate traced run that also times untraced passes to report the
// tracing overhead. Workloads, metrics and the layer map are described in
// README.md next to this file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics every workload reports, in order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced-run metrics every workload reports, in order.
// A layer a workload does not exercise reads 0 (see README.md).
var perLayer = []struct{ name, unit string }{
	{"workload.generate_s", "s"},
	{"experiments.turnstile_wait_frac", "ratio"},
	{"experiments.commit_s", "s"},
	{"experiments.unit_p50_ms", "ms"},
	{"experiments.unit_p99_ms", "ms"},
	{"analysis.analyze_s", "s"},
	{"analysis.fixpoint_solves", "count"},
	{"analysis.demand_evals", "count"},
	{"analysis.outer_passes", "count"},
	{"analysis.ns_per_demand_eval", "ns"},
	{"analysis.cache_hit_ratio", "ratio"},
	{"analysis.subtask_reuse_ratio", "ratio"},
	{"sim.simulate_s", "s"},
	{"sim.runs", "count"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.wheel_cascades", "count"},
	{"sim.queue_high_water", "count"},
	{"sim.preemptions", "count"},
	{"sim.context_switches", "count"},
	{"sim.rg_stalls", "count"},
	{"record.records", "count"},
	{"record.store_bytes", "bytes"},
	{"record.replay_s", "s"},
	{"report.render_s", "s"},
	{"admission.cache_count", "count"},
	{"admission.incremental_count", "count"},
	{"admission.full_count", "count"},
	{"admission.commits", "count"},
	{"admission.rejected_commits", "count"},
	{"admission.cache_p50_ms", "ms"},
	{"admission.cache_p99_ms", "ms"},
	{"admission.incremental_p50_ms", "ms"},
	{"admission.incremental_p99_ms", "ms"},
	{"admission.full_p50_ms", "ms"},
	{"admission.full_p99_ms", "ms"},
	{"admission.http_overhead_ms", "ms"},
	{"host.calib_s", "s"},
	{"host.steal_frac", "ratio"},
	{"host.wall_per_cpu", "ratio"},
	{"trace_overhead_frac", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// outcome is what a workload run hands back: operation counts and the
// metric values it measured (by name; units come from the tables above).
type outcome struct {
	attempted, failed int64
	values            map[string]float64
}

// workloadDef is one --workload choice. procs pins GOMAXPROCS, and the
// sweeps pin their worker count, so results do not depend on the host's
// core count.
type workloadDef struct {
	procs int
	run   func(cfg runConfig) (*outcome, error)
}

var workloads = map[string]workloadDef{
	"sweep-sim":     {procs: sweepSim.workers, run: sweepSim.run},
	"sweep-bounds":  {procs: 2, run: sweepBounds.run},
	"admission-mix": {procs: 1, run: runAdmission},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	name := flag.String("workload", "", fmt.Sprintf("workload to run: %v", names))
	seed := flag.Int64("seed", defaultSeed, "input seed (same seed, same inputs)")
	window := flag.Int("seconds", 30, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, names)
	}
	if *window < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(w.procs)
	out, err := w.run(runConfig{seed: *seed, seconds: time.Duration(*window) * time.Second, trace: *trace == 1})
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	table := endToEnd
	if *trace == 1 {
		table = perLayer
	} else {
		out.values["peak_rss_mb"] = peakRSSMB()
	}
	for _, m := range table {
		v := out.values[m.name]
		if *trace == 0 && !(v > 0) {
			return fmt.Errorf("%s: end-to-end metric %s not measured", *name, m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
