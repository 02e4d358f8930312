package main

import (
	"runtime"
	"testing"
	"time"
)

// TestExactCountsRepeat runs each workload's traced run twice on the same
// seed and requires every exact per-layer count to agree, so later changes
// may rest claims on these counts. It also checks that each workload
// exercises the layers it is meant to.
func TestExactCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, name := range []string{"sweep-sim", "sweep-bounds", "admission-mix"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			runtime.GOMAXPROCS(w.procs)
			var runs []*outcome
			for i := 0; i < 2; i++ {
				out, err := w.run(runConfig{seed: heldOutSeed, seconds: time.Second, trace: true})
				if err != nil {
					t.Fatal(err)
				}
				if out.attempted == 0 || out.failed != 0 {
					t.Fatalf("run %d: %d of %d operations failed", i, out.failed, out.attempted)
				}
				runs = append(runs, out)
			}
			for _, c := range exactCounts {
				if a, b := runs[0].values[c], runs[1].values[c]; a != b {
					t.Errorf("%s: %v then %v", c, a, b)
				}
			}
			v := runs[0].values
			switch name {
			case "sweep-sim":
				if v["sim.events"] == 0 || v["sim.runs"] == 0 {
					t.Errorf("no simulation: events %v runs %v", v["sim.events"], v["sim.runs"])
				}
			case "sweep-bounds":
				if v["sim.runs"] != 0 || v["analysis.fixpoint_solves"] == 0 {
					t.Errorf("sim runs %v, fixpoint solves %v", v["sim.runs"], v["analysis.fixpoint_solves"])
				}
				if f := v["experiments.turnstile_wait_frac"]; f > 0.05 {
					t.Errorf("one worker waited %.3f of its time at the turnstile", f)
				}
			case "admission-mix":
				for _, c := range []string{"cache_count", "incremental_count", "full_count", "commits"} {
					if v["admission."+c] == 0 {
						t.Errorf("admission.%s is 0", c)
					}
				}
			}
		})
	}
}
