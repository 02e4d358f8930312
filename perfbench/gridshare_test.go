package main

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"rtsync/internal/experiments"
	"rtsync/internal/obs"
	"rtsync/internal/workload"
)

// TestPaperGridShare measures how much of the analysis work of
// regenerating sweep-bounds' figures on the paper's full 35-configuration
// grid falls on the cells sweep-bounds measures. It sweeps each study one
// cell at a time and prints demand evaluations and time per cell, and the
// share of the grid total those cells carry. It is a report, not a check,
// and takes minutes, so it runs only when PERFBENCH_GRIDSHARE names the
// systems per cell:
//
//	cd perfbench && PERFBENCH_GRIDSHARE=50 go test -run PaperGridShare -v -timeout 2h
func TestPaperGridShare(t *testing.T) {
	systems, err := strconv.Atoi(os.Getenv("PERFBENCH_GRIDSHARE"))
	if err != nil || systems < 1 {
		t.Skip("set PERFBENCH_GRIDSHARE to the systems per cell to run")
	}
	args := experiments.DefaultStudyArgs()
	for _, sp := range sweepBounds.studies {
		st, _ := experiments.StudyByName(sp.name)
		measured := map[workload.Config]bool{}
		for _, c := range sp.configs() {
			measured[c] = true
		}
		grid := workload.PaperConfigurations()
		for c := range measured {
			if !inGrid(grid, c) {
				grid = append(grid, c) // measured, but not one of the paper's cells
			}
		}
		var evals, inEvals float64
		var took, inTook time.Duration
		for _, c := range grid {
			stats := obs.NewAnalysisStats()
			p := experiments.Params{
				Configs:          []workload.Config{c},
				SystemsPerConfig: systems,
				Seed:             defaultSeed,
				Parallelism:      1,
				AnalysisStats:    stats,
			}
			t0 := time.Now()
			if err := st.Run(p, args, st.New(args)); err != nil {
				t.Fatal(err)
			}
			el := time.Since(t0)
			var e float64
			if h := stats.Snapshot().FixpointIters; h != nil {
				e = float64(h.Sum)
			}
			paper := inGrid(workload.PaperConfigurations(), c)
			if paper {
				evals += e
				took += el
			}
			if measured[c] {
				inEvals += e
				inTook += el
			}
			fmt.Printf("%-8s N=%d U=%.1f paper=%-5v measured=%-5v demand_evals=%12.0f  %8.3fs\n",
				sp.name, c.SubtasksPerTask, c.Utilization, paper, measured[c], e, el.Seconds())
		}
		fmt.Printf("%-8s paper grid: %.0f demand evals in %.1fs; measured cells: %.0f evals (%.1f%% of the paper grid), %.1fs (%.1f%%)\n",
			sp.name, evals, took.Seconds(), inEvals, 100*ratio(inEvals, evals), inTook.Seconds(), 100*ratio(inTook.Seconds(), took.Seconds()))
	}
}

func inGrid(grid []workload.Config, c workload.Config) bool {
	for _, g := range grid {
		if g == c {
			return true
		}
	}
	return false
}
