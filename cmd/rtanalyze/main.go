// Command rtanalyze runs the paper's schedulability analyses on a system:
// Algorithm SA/PM (valid for the PM, MPM and RG protocols) and Algorithm
// SA/DS (for the DS protocol), reporting per-subtask bounds, per-task EER
// bounds, and schedulability verdicts. For systems whose subtasks declare
// critical-section segments on global resources, -algo mpcp and -algo dpcp
// run the suspension-aware locking analyses.
//
// Usage:
//
//	rtanalyze system.json            # both analyses
//	rtanalyze -algo sapm system.json
//	rtanalyze -algo mpcp system.json # locking-aware bounds
//	rtanalyze -example 2             # built-in Example 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/obs"
	"rtsync/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("rtanalyze", flag.ContinueOnError)
	var (
		algo    = fs.String("algo", "both", "analysis to run: sapm, sads, holistic, mpcp, dpcp, or both")
		example = fs.Int("example", 0, "use built-in example system (1 or 2) instead of a file")
		factor  = fs.Int64("failure-factor", 300, "bound > factor*period counts as infinite")
	)
	cli := obs.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopObs, err := cli.Start("rtanalyze", fs)
	if err != nil {
		return err
	}
	defer stopObs()

	var sys *model.System
	switch {
	case *example == 1:
		sys = model.Example1()
	case *example == 2:
		sys = model.Example2()
	case *example != 0:
		return fmt.Errorf("unknown example %d (want 1 or 2)", *example)
	case fs.NArg() == 1:
		var err error
		sys, err = model.LoadFile(fs.Arg(0))
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("usage: rtanalyze [flags] system.json (or -example N)")
	}

	opts := analysis.DefaultOptions()
	opts.FailureFactor = *factor

	// One Analyzer and one Reset serve every requested analysis. The stats
	// bank feeds manifests and /metrics (iteration histograms, solve counts).
	an, err := analysis.NewAnalyzer(sys, opts)
	if err != nil {
		return err
	}
	if cli.Observing() {
		ast := obs.NewAnalysisStats()
		an.Stats = ast
		cli.AttachAnalysisStats(ast)
	}
	switch *algo {
	case "sapm":
		return printResult(w, sys, an.AnalyzePM())
	case "sads":
		return printResult(w, sys, an.AnalyzeDS())
	case "holistic":
		return printResult(w, sys, an.AnalyzeHolistic())
	case "mpcp":
		return printResult(w, sys, an.AnalyzeMPCP())
	case "dpcp":
		return printResult(w, sys, an.AnalyzeDPCP())
	case "both":
		pm := an.AnalyzePM()
		if err := printResult(w, sys, pm); err != nil {
			return err
		}
		ds := an.AnalyzeDS()
		if err := printResult(w, sys, ds); err != nil {
			return err
		}
		return printComparison(w, sys, pm, ds, an.AnalyzeHolistic())
	default:
		return fmt.Errorf("unknown -algo %q (want sapm, sads, holistic, mpcp, dpcp, or both)", *algo)
	}
}

func printResult(w io.Writer, sys *model.System, res *analysis.Result) error {
	sub := report.NewTable(
		fmt.Sprintf("%s — per-subtask bounds (%d iterations)", res.Protocol, res.Iterations),
		"subtask", "proc", "exec", "priority", "bound")
	for _, id := range sys.SubtaskIDs() {
		st := sys.Subtask(id)
		sub.AddRowf(id.String(), sys.Procs[st.Proc].Name, st.Exec.String(),
			int(st.Priority), res.Bound(id).Response.String())
	}
	if err := sub.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	tasks := report.NewTable(res.Protocol+" — per-task end-to-end bounds",
		"task", "period", "deadline", "EER bound", "schedulable")
	for i := range sys.Tasks {
		t := &sys.Tasks[i]
		tasks.AddRowf(t.Name, t.Period.String(), t.Deadline.String(),
			res.TaskEER[i].String(), fmt.Sprintf("%v", res.Schedulable(sys, i)))
	}
	if err := tasks.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

func printComparison(w io.Writer, sys *model.System, pm, ds, hol *analysis.Result) error {
	t := report.NewTable("bound comparison (DS protocol analyses vs SA/PM)",
		"task", "SA/PM", "SA/DS", "holistic", "SA-DS/SA-PM")
	for i := range sys.Tasks {
		ratio := "-"
		if !pm.TaskEER[i].IsInfinite() && !ds.TaskEER[i].IsInfinite() && pm.TaskEER[i] > 0 {
			ratio = fmt.Sprintf("%.3f", float64(ds.TaskEER[i])/float64(pm.TaskEER[i]))
		}
		t.AddRow(sys.Tasks[i].Name, pm.TaskEER[i].String(), ds.TaskEER[i].String(),
			hol.TaskEER[i].String(), ratio)
	}
	return t.Render(w)
}
