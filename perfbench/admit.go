package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"rtsync/internal/admission"
	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/obs"
	"rtsync/internal/workload"
)

// The admission-mix base system joins admitShards independent subsystems,
// each shaped like the paper's population (4 processors, 12 tasks), so the
// whole is several times the paper's size: the workspace's own work is
// about half of each round trip (admission.http_overhead_ms reports the
// HTTP share), and a one-task change leaves the other shards' processors
// clean for incremental re-analysis.
const (
	admitShards   = 3
	admitSubtasks = 3
	admitUtil     = 0.5
	// admitRounds of eight requests make one pass's fixed sequence.
	admitRounds = 150
)

// otherAlgos are the analyses a full-path request names in turn.
var otherAlgos = []string{admission.AlgoHolistic, admission.AlgoSAPM, admission.AlgoMPCP, admission.AlgoDPCP}

// admitPlan is the seeded input of the admission-mix workload: the base
// system, the fixed request sequence, and each request's expected verdict
// from a cold full analysis.
type admitPlan struct {
	baseJSON []byte
	deltas   []admission.Delta
	bodies   [][]byte
	want     []admission.Verdict
}

// newAdmitPlan generates the base system and the request sequence. Each
// round of eight requests mixes the three serving paths:
//
//	probe A, probe B           incremental (first contact)
//	repeat A                   cache
//	C under another algorithm  full
//	commit A                   cache, adopted
//	probe B, probe D           incremental, against the new system
//	undo A (commit original)   cache, adopted
//
// Each commit is undone in the same round, so the committed system never
// drifts. Scale factors shift every round, so probes rarely repeat an
// earlier round's system. Half the requests are incremental, so the
// median round trip falls inside that path's latencies, not on the edge
// between two paths.
func newAdmitPlan(seed int64) (*admitPlan, error) {
	pl := &admitPlan{}
	base := &model.System{}
	for k := 0; k < admitShards; k++ {
		shard, err := schedulableShard(seed*1000 + int64(k)*100)
		if err != nil {
			return nil, err
		}
		off := len(base.Procs)
		for _, p := range shard.Procs {
			p.Name = fmt.Sprintf("S%d.%s", k+1, p.Name)
			base.Procs = append(base.Procs, p)
		}
		for _, t := range shard.Tasks {
			t.Name = fmt.Sprintf("S%d.%s", k+1, t.Name)
			for j := range t.Subtasks {
				t.Subtasks[j].Proc += off
			}
			base.Tasks = append(base.Tasks, t)
		}
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := base.WriteJSON(&buf); err != nil {
		return nil, err
	}
	pl.baseJSON = buf.Bytes()

	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < admitRounds; r++ {
		pick := rng.Perm(len(base.Tasks))
		a, b, c, d := &base.Tasks[pick[0]], &base.Tasks[pick[1]], &base.Tasks[pick[2]], &base.Tasks[pick[3]]
		step := 0.0005 * float64(r)
		aMod, bMod, cMod, dMod := scaled(a, 0.90-step), scaled(b, 0.93-step), scaled(c, 0.88-step), scaled(d, 0.91-step)
		algo := otherAlgos[r%len(otherAlgos)]
		pl.deltas = append(pl.deltas,
			admission.Delta{Modify: []model.Task{aMod}},
			admission.Delta{Modify: []model.Task{bMod}},
			admission.Delta{Modify: []model.Task{aMod}},
			admission.Delta{Modify: []model.Task{cMod}, Algo: algo},
			admission.Delta{Modify: []model.Task{aMod}, Commit: true},
			admission.Delta{Modify: []model.Task{bMod}},
			admission.Delta{Modify: []model.Task{dMod}},
			admission.Delta{Modify: []model.Task{cloneTask(a)}, Commit: true},
		)
	}
	for _, d := range pl.deltas {
		body, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		pl.bodies = append(pl.bodies, body)
	}
	return pl, pl.expect(base)
}

// schedulableShard generates the first paper-shaped system, from seeds
// counting up from seed, that SA/DS accepts, so that commits are admitted.
func schedulableShard(seed int64) (*model.System, error) {
	cfg := workload.DefaultConfig(admitSubtasks, admitUtil)
	for k := int64(0); k < 100; k++ {
		cfg.Seed = seed + k
		sys, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		v, err := coldVerdict(sys, admission.AlgoSADS)
		if err != nil {
			return nil, err
		}
		if v.Schedulable {
			return sys, nil
		}
	}
	return nil, fmt.Errorf("no SA/DS-schedulable shard among seeds %d..%d", seed, seed+99)
}

// cloneTask deep-copies a task.
func cloneTask(t *model.Task) model.Task {
	c := *t
	c.Subtasks = append([]model.Subtask(nil), t.Subtasks...)
	return c
}

// scaled returns t with every subtask's execution time scaled by f.
func scaled(t *model.Task, f float64) model.Task {
	c := cloneTask(t)
	for i := range c.Subtasks {
		c.Subtasks[i].Exec = max(1, model.Duration(float64(c.Subtasks[i].Exec)*f))
	}
	return c
}

// expect computes every request's verdict from scratch, tracking the
// committed system as the workspace should: a fresh analyzer per proposed
// system, no cache, no incremental seeds.
func (pl *admitPlan) expect(base *model.System) error {
	committed := base.Clone()
	memo := map[analysis.SystemDigest]*admission.Verdict{}
	var h analysis.SystemHasher
	for _, d := range pl.deltas {
		next := committed.Clone()
		for _, t := range d.Modify {
			found := false
			for i := range next.Tasks {
				if next.Tasks[i].Name == t.Name {
					next.Tasks[i], found = cloneTask(&t), true
				}
			}
			if !found {
				return fmt.Errorf("modify %q: no such task", t.Name)
			}
		}
		algo := d.Algo
		if algo == "" {
			algo = admission.AlgoSADS
		}
		key := h.Hash(next, algo, analysis.DefaultOptions())
		v := memo[key]
		if v == nil {
			var err error
			if v, err = coldVerdict(next, algo); err != nil {
				return err
			}
			memo[key] = v
		}
		want := *v
		if d.Commit && want.Schedulable {
			want.Committed = true
			committed = next
		}
		pl.want = append(pl.want, want)
	}
	return nil
}

// coldVerdict analyzes sys under algo on a fresh analyzer with the paper's
// default options.
func coldVerdict(sys *model.System, algo string) (*admission.Verdict, error) {
	an, err := analysis.NewAnalyzer(sys, analysis.DefaultOptions())
	if err != nil {
		return nil, err
	}
	var res *analysis.Result
	switch algo {
	case admission.AlgoSADS:
		res = an.AnalyzeDS()
	case admission.AlgoSAPM:
		res = an.AnalyzePM()
	case admission.AlgoHolistic:
		res = an.AnalyzeHolistic()
	case admission.AlgoMPCP:
		res = an.AnalyzeMPCP()
	case admission.AlgoDPCP:
		res = an.AnalyzeDPCP()
	default:
		return nil, fmt.Errorf("unknown algorithm %q", algo)
	}
	v := &admission.Verdict{Algo: res.Protocol, Schedulable: true}
	for i := range sys.Tasks {
		ok := res.Schedulable(sys, i)
		v.Schedulable = v.Schedulable && ok
		v.Tasks = append(v.Tasks, admission.TaskVerdict{
			Name:        sys.Tasks[i].Name,
			EER:         res.TaskEER[i].String(),
			Deadline:    sys.Tasks[i].Deadline.String(),
			Schedulable: ok,
		})
	}
	return v, nil
}

// sameVerdict compares the parts of a verdict that do not depend on the
// serving path.
func sameVerdict(got, want *admission.Verdict) bool {
	if got.Algo != want.Algo || got.Schedulable != want.Schedulable ||
		got.Committed != want.Committed || len(got.Tasks) != len(want.Tasks) {
		return false
	}
	for i := range got.Tasks {
		if got.Tasks[i] != want.Tasks[i] {
			return false
		}
	}
	return true
}

// newWorkspace is the service's set-up: decode the base system, prime a
// workspace (one full analysis) with the service's default configuration.
func (pl *admitPlan) newWorkspace(stats *obs.AnalysisStats) (*admission.Workspace, error) {
	sys, err := model.ReadJSON(bytes.NewReader(pl.baseJSON))
	if err != nil {
		return nil, err
	}
	return admission.NewWorkspace(sys, admission.Config{Stats: stats})
}

// admitPass is one replay of the request sequence over HTTP. The process
// runs on one P, so its CPU time covers client, loopback and server, and
// stands for wall time without the time the hypervisor stole.
type admitPass struct {
	elapsed, cpu time.Duration      // wall and process CPU time of the pass
	scale        float64            // hostClock factor of the pass's interval
	rtt          []float64          // ms of CPU time per request round trip
	paths        map[string]float64 // requests per serving path, commits
	failed       int64              // non-200 responses and verdicts unlike the cold analysis
}

// httpPass starts the service on a loopback server, then replays the
// sequence through one closed-loop client: each request waits for the
// previous verdict.
func (pl *admitPlan) httpPass(client *http.Client, stats *obs.AnalysisStats) (*admitPass, error) {
	ws, err := pl.newWorkspace(stats)
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(admission.NewService(ws))
	defer srv.Close()
	defer client.Transport.(*http.Transport).CloseIdleConnections()
	if err := get(client, srv.URL+"/healthz"); err != nil { // opens the connection
		return nil, err
	}

	p := &admitPass{rtt: make([]float64, 0, len(pl.bodies))}
	bodies := make([][]byte, len(pl.bodies))
	status := make([]int, len(pl.bodies))
	watch := startWatch()
	for i, body := range pl.bodies {
		t := cpuNow()
		resp, err := client.Post(srv.URL+"/v1/delta", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		bodies[i], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		p.rtt = append(p.rtt, millis(cpuNow()-t))
		status[i] = resp.StatusCode
	}
	p.elapsed, p.cpu = watch.elapsed()

	p.paths = map[string]float64{}
	for i, body := range bodies {
		var v admission.Verdict
		if status[i] != http.StatusOK || json.Unmarshal(body, &v) != nil || !sameVerdict(&v, &pl.want[i]) {
			p.failed++
		}
		p.paths["admission."+v.Path+"_count"]++
		switch {
		case v.Committed:
			p.paths["admission.commits"]++
		case pl.deltas[i].Commit:
			p.paths["admission.rejected_commits"]++
		}
	}
	return p, nil
}

func get(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}

// directPass replays the sequence straight into Workspace.ApplyDelta on a
// fresh workspace, timing each call in CPU time by the path that served
// it.
func (pl *admitPlan) directPass() (map[string][]float64, time.Duration, error) {
	deltas := make([]admission.Delta, len(pl.deltas))
	for i, d := range pl.deltas {
		deltas[i] = d
		deltas[i].Modify = []model.Task{cloneTask(&d.Modify[0])}
	}
	ws, err := pl.newWorkspace(nil)
	if err != nil {
		return nil, 0, err
	}
	byPath := map[string][]float64{}
	var total time.Duration
	for _, d := range deltas {
		t := cpuNow()
		v, err := ws.ApplyDelta(d)
		el := cpuNow() - t
		if err != nil {
			return nil, 0, err
		}
		total += el
		byPath[v.Path] = append(byPath[v.Path], millis(el))
	}
	return byPath, total, nil
}

// runAdmission measures the admission-mix workload. Every pass starts a
// fresh workspace and service, so every pass does identical work.
func runAdmission(cfg runConfig) (*outcome, error) {
	pl, err := newAdmitPlan(cfg.seed)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	out := &outcome{values: map[string]float64{}}
	onePass := func(stats *obs.AnalysisStats) (*admitPass, error) {
		runtime.GC() // every pass starts from the same heap
		p, err := pl.httpPass(client, stats)
		if err != nil {
			return nil, err
		}
		out.attempted += int64(len(pl.bodies))
		out.failed += p.failed
		return p, nil
	}
	if _, err := onePass(nil); err != nil { // warm-up, not measured
		return nil, err
	}
	// About 280 KB of allocation per set-up (see setupTimer).
	setup := &setupTimer{k: 6, setup: func() (func(), error) {
		ws, err := pl.newWorkspace(nil)
		if err != nil {
			return nil, err
		}
		return httptest.NewServer(admission.NewService(ws)).Close, nil
	}}

	var plain, traced []*admitPass
	var layers []map[string]float64
	var direct, directTotal []float64
	directByPath := map[string][]float64{}
	clock := &hostClock{workers: 1}
	clock.tick()
	start, stat0 := time.Now(), readCPUStat()
	for len(plain) < minPasses(cfg) || time.Since(start) < cfg.seconds {
		p, err := onePass(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		newSetups := len(setup.samples)
		if !cfg.trace {
			if err := setup.time(setupBatchesPerPass); err != nil {
				return nil, err
			}
		} else {
			stats := obs.NewAnalysisStats()
			t, err := onePass(stats)
			if err != nil {
				return nil, err
			}
			traced = append(traced, t)
			layers = append(layers, admitLayers(t, stats))
			byPath, total, err := pl.directPass()
			if err != nil {
				return nil, err
			}
			directTotal = append(directTotal, seconds(total))
			for path, ms := range byPath {
				directByPath[path] = append(directByPath[path], ms...)
				direct = append(direct, ms...)
			}
		}
		clock.tick()
		p.scale = clock.scale(len(plain) - 1)
		for i := newSetups; i < len(setup.samples); i++ {
			setup.samples[i] *= p.scale
		}
	}
	thr := func(ps []*admitPass, scaled bool) float64 {
		var xs []float64
		for _, p := range ps {
			t := seconds(p.cpu)
			if scaled {
				t *= p.scale
			}
			xs = append(xs, float64(len(pl.bodies))/t)
		}
		return median(xs)
	}
	var rtt, rttRef, wallPerCPU []float64
	for _, p := range plain {
		rtt = append(rtt, p.rtt...)
		for _, ms := range p.rtt {
			rttRef = append(rttRef, ms*p.scale)
		}
		wallPerCPU = append(wallPerCPU, seconds(p.elapsed)/seconds(p.cpu))
	}
	steal := stealFrac(stat0, readCPUStat())
	fmt.Fprintf(os.Stderr, "admission-mix seed %d: %d requests x %d passes, host steal %.1f%%, wall/CPU time %.3f, calibrate %.1f ms, unscaled throughput %.1f/s\n",
		cfg.seed, len(pl.bodies), len(plain)+len(traced)+1, 100*steal, median(wallPerCPU), 1000*median(clock.ticks), thr(plain, false))
	if !cfg.trace {
		out.values["setup_s"] = median(setup.samples)
		out.values["throughput_per_s"] = thr(plain, true)
		out.values["latency_p50_ms"] = quantile(rttRef, 0.5)
		out.values["latency_p99_ms"] = quantile(rttRef, 0.99)
		return out, nil
	}
	if !sameCounts(layers) {
		out.failed++
	}
	for name, v := range layers[0] {
		out.values[name] = v
	}
	analyze := median(directTotal)
	out.values["analysis.analyze_s"] = analyze
	out.values["analysis.ns_per_demand_eval"] = ratio(analyze*1e9, out.values["analysis.demand_evals"])
	for _, path := range []string{"cache", "incremental", "full"} {
		out.values["admission."+path+"_p50_ms"] = quantile(directByPath[path], 0.5)
		out.values["admission."+path+"_p99_ms"] = quantile(directByPath[path], 0.99)
	}
	out.values["admission.http_overhead_ms"] = median(rtt) - median(direct)
	out.values["host.calib_s"] = median(clock.ticks)
	out.values["host.steal_frac"] = steal
	out.values["host.wall_per_cpu"] = median(wallPerCPU)
	out.values["trace_overhead_frac"] = 1 - thr(traced, false)/thr(plain, false)
	return out, nil
}

// admitLayers reads one traced pass's paths and analysis counters.
func admitLayers(p *admitPass, stats *obs.AnalysisStats) map[string]float64 {
	m := map[string]float64{}
	for name, n := range p.paths {
		m[name] = n
	}
	as := stats.Snapshot()
	m["analysis.fixpoint_solves"] = float64(as.FixpointSolves)
	if as.FixpointIters != nil {
		m["analysis.demand_evals"] = float64(as.FixpointIters.Sum)
	}
	if as.OuterIters != nil {
		m["analysis.outer_passes"] = float64(as.OuterIters.Sum)
	}
	m["analysis.cache_hit_ratio"] = ratio(float64(as.CacheHits), float64(as.CacheHits+as.CacheMisses))
	m["analysis.subtask_reuse_ratio"] = ratio(float64(as.SubtasksReused), float64(as.SubtasksReused+as.SubtasksRecomputed))
	return m
}
