package explain

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptiverank/internal/obs"
	"adaptiverank/internal/vector"
)

func testWeights(vals map[int32]float64) *vector.Weights {
	w := vector.NewWeights()
	for i := int32(0); i < 64; i++ {
		if v, ok := vals[i]; ok {
			w.Set(i, v)
		}
	}
	return w
}

func newTestExplainer(t *testing.T, opts Options) (*Explainer, string) {
	t.Helper()
	dir := t.TempDir()
	opts.Dir = dir
	if opts.RunID == "" {
		opts.RunID = "test-run"
	}
	if opts.Fingerprint == "" {
		opts.Fingerprint = "fp-test"
	}
	e, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e, dir
}

func TestExplainerRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	e, dir := newTestExplainer(t, Options{Registry: reg})

	name := func(i int32) string {
		return "feat" + string(rune('A'+i))
	}
	w0 := testWeights(map[int32]float64{0: 1, 1: -2, 2: 0.5})
	e.RecordSnapshot("train-init", 10, 0, w0, name, 0, 0)
	w1 := testWeights(map[int32]float64{0: 1.5, 2: 0.25, 3: 4})
	e.RecordSnapshot("train-update", 20, 100, w1, name, 1, 1)

	e.Advance(150)
	rec := e.Recorder()
	if !rec.Enabled() {
		t.Fatal("explain sink should be enabled")
	}
	rec.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: "Mod-C",
		Val: 7.5, Fired: true, Span: 30, Seq: 41, T: 99,
		Attrs: []obs.Attr{{Key: obs.EvidenceThreshold, Num: 5}}})
	// Non-decision events must be ignored by the sink.
	rec.Record(obs.Event{Kind: obs.KindModelUpdated, Name: "Mod-C"})

	e.RecordAttribution(Record{
		Doc: 77, Rank: 0, Span: 40, Pos: 150, Score: 1.25,
		Members: []Member{{Margin: 1.25, Contribs: []Feature{
			{Index: 0, Name: "featA", Weight: 0.75},
			{Index: 3, Name: "featD", Weight: 0.5},
		}}},
	})

	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	l, err := ReadLog(dir)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if l.Header.RunID != "test-run" || l.Header.Fingerprint != "fp-test" {
		t.Fatalf("header = %+v", l.Header)
	}
	if l.Header.Go == "" || l.Header.GOMAXPROCS == 0 {
		t.Fatalf("header missing environment: %+v", l.Header)
	}
	if got := l.Records(); got != 4 {
		t.Fatalf("Records() = %d, want 4", got)
	}

	if len(l.Snapshots) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(l.Snapshots))
	}
	s0, s1 := l.Snapshots[0], l.Snapshots[1]
	if s0.Stage != "train-init" || s0.Update != 0 || s0.NNZ != 3 || s0.Span != 10 {
		t.Fatalf("init snapshot = %+v", s0)
	}
	if s0.DriftPrev != nil || s0.DriftInit != nil {
		t.Fatalf("init snapshot should carry no drift: %+v", s0)
	}
	if len(s0.Top) != 3 || s0.Top[0].Index != 1 || s0.Top[0].Name != "featB" {
		t.Fatalf("init top weights = %+v", s0.Top)
	}
	if s1.Stage != "train-update" || s1.Update != 1 || s1.Pos != 100 {
		t.Fatalf("update snapshot = %+v", s1)
	}
	if s1.DriftPrev == nil || s1.DriftInit == nil {
		t.Fatalf("update snapshot must carry drift: %+v", s1)
	}
	// w0 -> w1: feature 1 left (-2), feature 3 entered (+4),
	// deltas (0.5, 2, 0.25, 4) => L1 = 6.75.
	if got := s1.DriftPrev.L1; got != 6.75 {
		t.Fatalf("drift L1 = %v, want 6.75", got)
	}
	if s1.DriftPrev.Entered != 1 || s1.DriftPrev.Left != 1 {
		t.Fatalf("drift churn = %+v", s1.DriftPrev)
	}
	if s1.Added != 1 || s1.Removed != 1 {
		t.Fatalf("snapshot churn = %+v", s1)
	}
	if len(s1.Movers) == 0 || s1.Movers[0].Index != 3 || s1.Movers[0].Weight != 4 {
		t.Fatalf("movers = %+v", s1.Movers)
	}

	if len(l.Decisions) != 1 {
		t.Fatalf("decisions = %d, want 1", len(l.Decisions))
	}
	d := l.Decisions[0]
	if d.Detector != "Mod-C" || !d.Fired || d.Val != 7.5 || d.Span != 30 ||
		d.Seq != 41 || d.T != 99 || d.Pos != 150 {
		t.Fatalf("decision = %+v", d)
	}
	if th, ok := d.EvidenceNum(obs.EvidenceThreshold); !ok || th != 5 {
		t.Fatalf("decision evidence = %+v", d.Evidence)
	}

	a, ok := l.Attribution(77)
	if !ok || a.Score != 1.25 || len(a.Members) != 1 {
		t.Fatalf("attribution = %+v ok=%v", a, ok)
	}

	if got := reg.CounterValue(obs.MetricExplainSnapshots); got != 2 {
		t.Fatalf("snapshot counter = %d", got)
	}
	if got := reg.CounterValue(obs.MetricExplainDecisions); got != 1 {
		t.Fatalf("decision counter = %d", got)
	}
	if got := reg.CounterValue(obs.MetricExplainAttributions); got != 1 {
		t.Fatalf("attribution counter = %d", got)
	}
	if got := reg.CounterValue(obs.MetricExplainErrors); got != 0 {
		t.Fatalf("error counter = %d", got)
	}
}

func TestReadLogTornTail(t *testing.T) {
	e, dir := newTestExplainer(t, Options{})
	e.RecordSnapshot("train-init", 1, 0, testWeights(map[int32]float64{0: 1}), nil, 0, 0)
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	p := filepath.Join(dir, LogName)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn, unterminated final line.
	torn := append(data, []byte(`{"kind":"snapshot","nnz"`)...)
	if err := os.WriteFile(p, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := ReadLog(dir)
	if err != nil {
		t.Fatalf("ReadLog with torn tail: %v", err)
	}
	if len(l.Snapshots) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(l.Snapshots))
	}

	// A malformed line in the middle is corruption, not a torn tail.
	bad := append(append([]byte{}, data...), []byte("not json\n")...)
	bad = append(bad, data...)
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(dir); err == nil {
		t.Fatal("ReadLog should reject mid-file corruption")
	}

	// A log with no header is unusable.
	if err := os.WriteFile(p, []byte(`{"kind":"snapshot"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(dir); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("ReadLog without header: %v", err)
	}
}

// TestExplainerTimelineReset: one Explainer across several pipeline
// runs (an experiments suite, a benchmark loop). Each train-init starts
// a fresh timeline segment — drift baselines and the update counter
// reset, and the new run's snapshot must never resolve feature indices
// through the previous run's name function (the feature index spaces
// are unrelated; crossing them is an out-of-range lookup).
func TestExplainerTimelineReset(t *testing.T) {
	e, dir := newTestExplainer(t, Options{})

	nameA := func(i int32) string { return "runA" }
	e.RecordSnapshot(StageTrainInit, 10, 0, testWeights(map[int32]float64{0: 1, 40: 2}), nameA, 0, 0)
	e.RecordSnapshot(StageTrainUpdate, 20, 50, testWeights(map[int32]float64{0: 2, 40: -1}), nameA, 1, 0)

	// Second run: a tiny feature space whose name function rejects the
	// first run's high indices outright.
	nameB := func(i int32) string {
		if i > 1 {
			t.Fatalf("second run resolved feature %d from the first run's index space", i)
		}
		return "runB"
	}
	e.RecordSnapshot(StageTrainInit, 30, 0, testWeights(map[int32]float64{1: 3}), nameB, 0, 0)
	e.RecordSnapshot(StageTrainUpdate, 40, 25, testWeights(map[int32]float64{1: 4}), nameB, 0, 0)

	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l, err := ReadLog(dir)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if len(l.Snapshots) != 4 {
		t.Fatalf("got %d snapshots, want 4", len(l.Snapshots))
	}
	reinit := l.Snapshots[2]
	if reinit.Stage != StageTrainInit || reinit.Update != 0 {
		t.Fatalf("second train-init did not restart the segment: %+v", reinit)
	}
	if reinit.DriftPrev != nil || reinit.DriftInit != nil || len(reinit.Movers) != 0 {
		t.Fatalf("second train-init carries drift across the run boundary: %+v", reinit)
	}
	upd := l.Snapshots[3]
	if upd.Update != 1 || upd.DriftPrev == nil || upd.DriftInit == nil {
		t.Fatalf("second segment's update lost its within-run drift: %+v", upd)
	}
}

func TestExplainerBounds(t *testing.T) {
	e, _ := newTestExplainer(t, Options{})
	rec := e.Recorder()
	const n = keepDecisions + 1
	for i := 0; i < n; i++ {
		rec.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: "Wind-F",
			Val: float64(i), Fired: i == n-1})
	}
	_, _, decs := e.State()
	if decs != keepDecisions {
		t.Fatalf("retained decisions = %d, want %d", decs, keepDecisions)
	}
	e.mu.Lock()
	last := e.decisions[len(e.decisions)-1]
	e.mu.Unlock()
	if last.Val != n-1 || !last.Fired {
		t.Fatalf("retention must keep the newest records: %+v", last)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestAppendBoundedKeepsNewest: after every append the retained records
// are the newest keep, in order, and the ring never holds more than
// twice that.
func TestAppendBoundedKeepsNewest(t *testing.T) {
	const keep = 7
	var s []Record
	for i := 0; i < 5*keep+3; i++ {
		s = appendBounded(s, Record{Pos: i}, keep)
		got := newest(s, keep)
		if want := min(i+1, keep); len(got) != want {
			t.Fatalf("after %d appends: %d records retained, want %d", i+1, len(got), want)
		}
		for j, r := range got {
			if want := i + 1 - len(got) + j; r.Pos != want {
				t.Fatalf("after %d appends: record %d is %d, want %d", i+1, j, r.Pos, want)
			}
		}
		if len(s) > 2*keep {
			t.Fatalf("after %d appends: ring holds %d records, want at most %d", i+1, len(s), 2*keep)
		}
	}
}

func TestNilExplainerInert(t *testing.T) {
	var e *Explainer
	e.RecordSnapshot("train-init", 0, 0, testWeights(nil), nil, 0, 0)
	e.RecordAttribution(Record{Doc: 1})
	e.Advance(5)
	if e.Recorder() != nil {
		t.Fatal("nil explainer must yield a nil recorder (dropped by obs.Tee)")
	}
	if n := e.AttribTopN(); n != 0 {
		t.Fatalf("nil AttribTopN = %d", n)
	}
	if s, a, d := e.State(); s+a+d != 0 {
		t.Fatal("nil state must be empty")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
	rr := httptest.NewRecorder()
	e.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/weights", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("nil handler status = %d", rr.Code)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	e, _ := newTestExplainer(t, Options{})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	get := func(t *testing.T, path string, want int) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		var buf [1 << 16]byte
		n, _ := resp.Body.Read(buf[:])
		return buf[:n]
	}

	// Empty state: summary works, weights 404s.
	body := get(t, "/", http.StatusOK)
	var summary map[string]any
	if err := json.Unmarshal(body, &summary); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if summary["run_id"] != "test-run" {
		t.Fatalf("summary = %v", summary)
	}
	get(t, "/weights", http.StatusNotFound)

	e.RecordSnapshot("train-init", 1, 0, testWeights(map[int32]float64{0: 2, 5: -1}), nil, 0, 0)
	e.RecordSnapshot("train-update", 2, 50, testWeights(map[int32]float64{0: 3}), nil, 0, 1)
	rec := e.Recorder()
	rec.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: "Top-K", Val: 0.1})
	rec.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: "Top-K", Val: 0.4, Fired: true})
	e.RecordAttribution(Record{Doc: 42, Score: 3,
		Members: []Member{{Margin: 3, Contribs: []Feature{{Index: 0, Weight: 3}}}}})

	var latest Record
	if err := json.Unmarshal(get(t, "/weights", http.StatusOK), &latest); err != nil {
		t.Fatal(err)
	}
	if latest.Stage != "train-update" || latest.NNZ != 1 {
		t.Fatalf("latest snapshot = %+v", latest)
	}

	var timeline []Record
	if err := json.Unmarshal(get(t, "/drift", http.StatusOK), &timeline); err != nil {
		t.Fatal(err)
	}
	if len(timeline) != 2 || timeline[1].DriftPrev == nil {
		t.Fatalf("drift timeline = %+v", timeline)
	}

	var fired []Record
	if err := json.Unmarshal(get(t, "/decisions?fired=1", http.StatusOK), &fired); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0].Val != 0.4 {
		t.Fatalf("fired decisions = %+v", fired)
	}
	get(t, "/decisions?n=bogus", http.StatusBadRequest)

	var attrib Record
	if err := json.Unmarshal(get(t, "/explain?doc=42", http.StatusOK), &attrib); err != nil {
		t.Fatal(err)
	}
	if attrib.Doc != 42 || attrib.Score != 3 {
		t.Fatalf("attribution = %+v", attrib)
	}
	get(t, "/explain?doc=999", http.StatusNotFound)
	get(t, "/explain?doc=abc", http.StatusBadRequest)
	get(t, "/nope", http.StatusNotFound)

	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
