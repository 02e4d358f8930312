package admission

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"rtsync/internal/analysis"
	"rtsync/internal/model"
	"rtsync/internal/obs"
	"rtsync/internal/workload"
)

func testSystem(t *testing.T, seed int64) *model.System {
	t.Helper()
	cfg := workload.DefaultConfig(5, 0.7)
	cfg.Seed = seed
	s, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestWorkspace(t *testing.T, sys *model.System, algo string) (*Workspace, *obs.AnalysisStats) {
	t.Helper()
	st := obs.NewAnalysisStats()
	ws, err := NewWorkspace(sys, Config{Algo: algo, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	return ws, st
}

// batchVerdict computes the reference verdict the way rtanalyze would: a
// fresh full analysis of the whole system.
func batchVerdict(t *testing.T, sys *model.System, algo string) []bool {
	t.Helper()
	opts := analysis.DefaultOptions()
	var res *analysis.Result
	var err error
	switch algo {
	case AlgoSAPM:
		res, err = analysis.AnalyzePM(sys, opts)
	case AlgoSADS:
		res, err = analysis.AnalyzeDS(sys, opts)
	default:
		t.Fatalf("unsupported reference algo %s", algo)
	}
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, len(sys.Tasks))
	for i := range sys.Tasks {
		out[i] = res.Schedulable(sys, i)
	}
	return out
}

func TestWorkspaceDeltaMatchesBatch(t *testing.T) {
	for _, algo := range []string{AlgoSADS, AlgoSAPM} {
		t.Run(algo, func(t *testing.T) {
			sys := testSystem(t, 42)
			ws, st := newTestWorkspace(t, sys, algo)

			// Modify task 0: shrink its first subtask's exec.
			mod := sys.Tasks[0]
			mod.Subtasks = append([]model.Subtask(nil), mod.Subtasks...)
			mod.Subtasks[0].Exec++
			v, err := ws.ApplyDelta(Delta{Modify: []model.Task{mod}, Commit: true})
			if err != nil {
				t.Fatal(err)
			}
			if v.Path != "incremental" {
				t.Errorf("modify path = %q, want incremental", v.Path)
			}
			next := sys.Clone()
			next.Tasks[0] = mod
			want := batchVerdict(t, next, algo)
			for i, tv := range v.Tasks {
				if tv.Schedulable != want[i] {
					t.Errorf("task %s: service says %v, batch says %v", tv.Name, tv.Schedulable, want[i])
				}
			}
			if v.Committed != v.Schedulable {
				t.Errorf("committed = %v with schedulable = %v", v.Committed, v.Schedulable)
			}
			if st.Snapshot().DeltaAnalyses != 1 {
				t.Errorf("delta analyses = %d, want 1", st.Snapshot().DeltaAnalyses)
			}
		})
	}
}

func TestWorkspaceRemoveAddRoundtrip(t *testing.T) {
	sys := testSystem(t, 7)
	ws, st := newTestWorkspace(t, sys, AlgoSADS)
	name := sys.Tasks[len(sys.Tasks)-1].Name
	removed := sys.Tasks[len(sys.Tasks)-1]

	v, err := ws.ApplyDelta(Delta{Remove: []string{name}, Commit: true, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Path != "incremental" {
		t.Errorf("remove path = %q, want incremental", v.Path)
	}
	if len(v.Tasks) != len(sys.Tasks)-1 {
		t.Errorf("verdict lists %d tasks, want %d", len(v.Tasks), len(sys.Tasks)-1)
	}
	if !v.Committed {
		t.Fatal("removal of a schedulable system's task was not committed")
	}

	// Re-adding the same task restores the original digest: the answer
	// must come straight from the cache (the prime analysis stored it).
	v2, err := ws.ApplyDelta(Delta{Add: []model.Task{removed}, Commit: true, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if v2.Path != "cache" {
		t.Errorf("undo path = %q, want cache", v2.Path)
	}
	want := batchVerdict(t, sys, AlgoSADS)
	for i, tv := range v2.Tasks {
		if tv.Schedulable != want[i] {
			t.Errorf("task %s after undo: %v, batch %v", tv.Name, tv.Schedulable, want[i])
		}
	}
	if hits := st.CacheHits(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}
}

func TestWorkspaceRejectsUnschedulable(t *testing.T) {
	sys := testSystem(t, 13)
	ws, _ := newTestWorkspace(t, sys, AlgoSADS)
	// A task that swamps processor 0 cannot be admitted.
	hog := model.Task{
		Name:     "hog",
		Period:   100,
		Deadline: 100,
		Subtasks: []model.Subtask{{Proc: 0, Exec: 99, Priority: 1}},
	}
	v, err := ws.ApplyDelta(Delta{Add: []model.Task{hog}, Commit: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.Schedulable {
		t.Fatal("a saturating task was admitted as schedulable")
	}
	if v.Committed {
		t.Fatal("an unschedulable delta was committed")
	}
	// The committed system must be untouched.
	if got := len(ws.System().Tasks); got != len(sys.Tasks) {
		t.Errorf("committed system has %d tasks after rejection, want %d", got, len(sys.Tasks))
	}
}

func TestWorkspaceDeltaErrors(t *testing.T) {
	ws, _ := newTestWorkspace(t, testSystem(t, 3), AlgoSADS)
	for name, d := range map[string]Delta{
		"remove-missing": {Remove: []string{"no-such-task"}},
		"modify-missing": {Modify: []model.Task{{Name: "ghost", Period: 10, Deadline: 10,
			Subtasks: []model.Subtask{{Proc: 0, Exec: 1}}}}},
		"add-duplicate": {Add: []model.Task{{Name: ws.System().Tasks[0].Name, Period: 10, Deadline: 10,
			Subtasks: []model.Subtask{{Proc: 0, Exec: 1}}}}},
		"add-invalid": {Add: []model.Task{{Name: "bad", Period: -1, Deadline: 10,
			Subtasks: []model.Subtask{{Proc: 0, Exec: 1}}}}},
		"bad-algo": {Algo: "edf"},
	} {
		if _, err := ws.ApplyDelta(d); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestServiceHTTP(t *testing.T) {
	sys := model.Example2()
	ws, _ := newTestWorkspace(t, sys, AlgoSADS)
	srv := httptest.NewServer(NewService(ws))
	defer srv.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		return resp, buf.Bytes()
	}

	resp, body := post("/v1/analyze", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/analyze: %s: %s", resp.Status, body)
	}
	var v Verdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("analyze response: %v", err)
	}
	if v.Algo != "SA/DS" || len(v.Tasks) != len(sys.Tasks) {
		t.Errorf("analyze verdict = %+v", v)
	}

	resp, body = post("/v1/delta", `{"remove": ["T3"], "commit": true, "force": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/delta: %s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Committed || len(v.Tasks) != len(sys.Tasks)-1 {
		t.Errorf("delta verdict = %+v", v)
	}

	resp, body = post("/v1/delta", `{"remove": ["nope"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad delta: %s (want 400): %s", resp.Status, body)
	}

	resp, err := http.Get(srv.URL + "/v1/system")
	if err != nil {
		t.Fatal(err)
	}
	got, err := model.ReadJSON(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/v1/system did not round-trip: %v", err)
	}
	if len(got.Tasks) != len(sys.Tasks)-1 {
		t.Errorf("served system has %d tasks, want %d", len(got.Tasks), len(sys.Tasks)-1)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(buf.String(), "rtsync_analysis_cache_misses_total") {
		t.Error("/metrics missing analysis counters")
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %s", resp.Status)
	}
}

// TestServiceBodyLimits pins the request-body contract: a /v1/delta body
// past MaxRequestBytes is refused with 413 before anything is evaluated,
// so the committed system and its generation stay as they were, and an
// empty /v1/analyze body means "the default algorithm".
func TestServiceBodyLimits(t *testing.T) {
	sys := model.Example2()
	ws, _ := newTestWorkspace(t, sys, AlgoSADS)
	srv := httptest.NewServer(NewService(ws))
	defer srv.Close()

	before := ws.System()
	gen := ws.gen
	// A syntactically valid commit whose task name alone overruns the cap.
	body := `{"commit": true, "force": true, "remove": ["` +
		strings.Repeat("x", MaxRequestBytes) + `"]}`
	resp, err := http.Post(srv.URL+"/v1/delta", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize /v1/delta: %s, want 413", resp.Status)
	}
	if ws.gen != gen {
		t.Errorf("generation moved from %d to %d", gen, ws.gen)
	}
	if !reflect.DeepEqual(ws.System(), before) {
		t.Error("oversize delta changed the committed system")
	}

	resp, err = http.Post(srv.URL+"/v1/analyze", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	var v Verdict
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty /v1/analyze: %s, want 200", resp.Status)
	}
	if err != nil || v.Algo != "SA/DS" || len(v.Tasks) != len(sys.Tasks) {
		t.Errorf("empty /v1/analyze verdict = %+v (%v)", v, err)
	}
}
