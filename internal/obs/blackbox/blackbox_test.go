package blackbox

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"adaptiverank/internal/obs"
)

func newRing(t *testing.T, opts Options) *Ring {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	r, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestRingDropOldestBounds(t *testing.T) {
	r := newRing(t, Options{})
	for i := 0; i < ringSize+12; i++ {
		r.Record(obs.Event{Kind: obs.KindDocExtracted, Doc: int64(i)})
	}
	s := r.snapshot()
	if len(s.events) != ringSize {
		t.Fatalf("ring holds %d events, want %d", len(s.events), ringSize)
	}
	if s.total != ringSize+12 || s.dropped != 12 {
		t.Errorf("total=%d dropped=%d, want %d/12", s.total, s.dropped, ringSize+12)
	}
	// Oldest first: docs 12..ringSize+11, self-stamped seq 13..ringSize+12.
	for i, e := range s.events {
		if e.Doc != int64(12+i) || e.Seq != int64(13+i) {
			t.Fatalf("event %d: doc=%d seq=%d, want doc=%d seq=%d", i, e.Doc, e.Seq, 12+i, 13+i)
		}
		if e.T == 0 {
			t.Fatalf("event %d not timestamped", i)
		}
	}
}

func TestStampedEventsPassThrough(t *testing.T) {
	// Behind a Tee events arrive stamped; the ring must keep them as-is.
	r := newRing(t, Options{})
	r.Record(obs.Event{Kind: obs.KindRunStarted, Seq: 41, T: 99})
	s := r.snapshot()
	if s.events[0].Seq != 41 || s.events[0].T != 99 {
		t.Errorf("stamped event rewritten: %+v", s.events[0])
	}
}

func TestSpanAndDecisionTracking(t *testing.T) {
	r := newRing(t, Options{})
	r.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanRun, Span: 1})
	r.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanRank, Span: 2, Parent: 1})
	r.Record(obs.Event{Kind: obs.KindSpanEnd, Name: obs.SpanRank, Span: 2, Parent: 1})
	r.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanBatch, Span: 3, Parent: 1})
	for i := 1; i <= keptDecisions+1; i++ {
		r.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: "modc", Val: float64(i)})
	}
	st := r.State()
	if len(st.Spans) != 2 || st.Spans[0].Name != obs.SpanRun || st.Spans[1].Name != obs.SpanBatch {
		t.Errorf("active spans: %+v", st.Spans)
	}
	if n := len(st.Decisions); n != keptDecisions || st.Decisions[0].Val != 2 || st.Decisions[n-1].Val != keptDecisions+1 {
		t.Errorf("decision tail: %+v", st.Decisions)
	}
}

func TestTriggerReasons(t *testing.T) {
	cases := []struct {
		e    obs.Event
		want string
	}{
		{obs.Event{Kind: obs.KindWorkerPanic, Name: obs.PanicSiteScore}, obs.DumpReasonWorkerPanic},
		{obs.Event{Kind: obs.KindExtractFault, Name: obs.FaultPanic}, obs.DumpReasonExtractPanic},
		{obs.Event{Kind: obs.KindExtractFault, Name: obs.FaultTimeout}, ""},
		{obs.Event{Kind: obs.KindAlert, Name: obs.RuleFaultRate}, obs.DumpReasonAlert},
		{obs.Event{Kind: obs.KindDocExtracted}, ""},
	}
	for _, c := range cases {
		if got := triggerReason(c.e); got != c.want {
			t.Errorf("triggerReason(%s/%s) = %q, want %q", c.e.Kind, c.e.Name, got, c.want)
		}
	}
}

func TestWorkerPanicDumpsBundle(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	reg.Counter(obs.MetricPipelineWorkerPanics).Inc()
	r := newRing(t, Options{Dir: dir, RunID: "run-x", Fingerprint: "fp-1", Registry: reg})
	r.Record(obs.Event{Kind: obs.KindRunStarted, Name: "rsvm"})
	r.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanRun, Span: 1})
	r.Record(obs.Event{Kind: obs.KindWorkerPanic, Name: obs.PanicSiteScore, Doc: 42})

	bundles, err := Bundles(dir)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("Bundles = %v, %v; want exactly one", bundles, err)
	}
	bdir := filepath.Join(dir, bundles[0])
	if !strings.Contains(bundles[0], obs.DumpReasonWorkerPanic) {
		t.Errorf("bundle name %q does not carry the reason", bundles[0])
	}
	meta, err := ReadMeta(bdir)
	if err != nil {
		t.Fatalf("ReadMeta: %v", err)
	}
	if meta.Reason != obs.DumpReasonWorkerPanic || meta.RunID != "run-x" || meta.Fingerprint != "fp-1" {
		t.Errorf("meta: %+v", meta)
	}
	if meta.Trigger == nil || meta.Trigger.Doc != 42 || meta.Trigger.Name != obs.PanicSiteScore {
		t.Errorf("trigger: %+v", meta.Trigger)
	}

	events, err := os.ReadFile(filepath.Join(bdir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(events), "\n"); got != 3 {
		t.Errorf("events.jsonl has %d records, want 3", got)
	}
	if !strings.Contains(string(events), string(obs.KindWorkerPanic)) {
		t.Error("events.jsonl missing the trigger event")
	}

	gor, err := os.ReadFile(filepath.Join(bdir, "goroutines.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The dump runs on the recording goroutine, so this test function is
	// on the stack of the dumping goroutine.
	if !strings.Contains(string(gor), "TestWorkerPanicDumpsBundle") {
		t.Error("goroutine dump does not include the recording goroutine's stack")
	}

	metrics, err := os.ReadFile(filepath.Join(bdir, "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), obs.MetricPipelineWorkerPanics) {
		t.Error("metrics.txt missing registry contents")
	}

	var rt map[string]any
	data, err := os.ReadFile(filepath.Join(bdir, "runtime.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatalf("runtime.json: %v", err)
	}
	if rt["goroutines"].(float64) < 1 || rt["gomaxprocs"].(float64) < 1 {
		t.Errorf("runtime.json implausible: %v", rt)
	}

	var spans []spanInfo
	data, err = os.ReadFile(filepath.Join(bdir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 1 || spans[0].Name != obs.SpanRun {
		t.Errorf("spans.json: %+v", spans)
	}

	if reg.Counter(obs.MetricBlackboxDumps).Value() != 1 {
		t.Error("blackbox.dumps counter not incremented")
	}
}

func TestAutoDumpBudget(t *testing.T) {
	dir := t.TempDir()
	r := newRing(t, Options{Dir: dir})
	for i := 0; i < maxBundles+3; i++ {
		r.Record(obs.Event{Kind: obs.KindWorkerPanic, Name: obs.PanicSiteScore, Doc: int64(i)})
	}
	bundles, _ := Bundles(dir)
	if len(bundles) != maxBundles {
		t.Fatalf("auto dumps = %d, want %d (budget)", len(bundles), maxBundles)
	}
	// Manual dumps are exempt from the budget.
	if _, err := r.Dump(obs.DumpReasonSignal); err != nil {
		t.Fatalf("manual Dump: %v", err)
	}
	bundles, _ = Bundles(dir)
	if len(bundles) != maxBundles+1 {
		t.Fatalf("after manual dump: %d bundles, want %d", len(bundles), maxBundles+1)
	}
	if !strings.Contains(bundles[maxBundles], obs.DumpReasonSignal) {
		t.Errorf("manual bundle name: %q", bundles[maxBundles])
	}
}

// TestConcurrentRecordAndDump is the -race coverage for the ring:
// writers hammer Record (including span churn), overflowing the ring,
// while another goroutine repeatedly dumps.
func TestConcurrentRecordAndDump(t *testing.T) {
	dir := t.TempDir()
	r := newRing(t, Options{Dir: dir})
	const writers, perWriter = 8, ringSize/8 + 64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * perWriter)
			for i := 0; i < perWriter; i++ {
				switch i % 4 {
				case 0:
					r.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanDoc, Span: base + int64(i)})
				case 1:
					r.Record(obs.Event{Kind: obs.KindSpanEnd, Name: obs.SpanDoc, Span: base + int64(i-1)})
				case 2:
					r.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: "modc", Val: float64(i)})
				default:
					r.Record(obs.Event{Kind: obs.KindDocExtracted, Doc: base + int64(i)})
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := r.Dump(obs.DumpReasonManual); err != nil {
				t.Errorf("Dump: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	s := r.snapshot()
	if s.total != writers*perWriter {
		t.Errorf("total = %d, want %d", s.total, writers*perWriter)
	}
	if len(s.events) != ringSize {
		t.Errorf("ring len = %d, want %d", len(s.events), ringSize)
	}
	bundles, _ := Bundles(dir)
	if len(bundles) != 10 {
		t.Errorf("bundles = %d, want 10", len(bundles))
	}
}

func TestHandler(t *testing.T) {
	dir := t.TempDir()
	r := newRing(t, Options{Dir: dir, RunID: "h-run"})
	r.Record(obs.Event{Kind: obs.KindRunStarted, Name: "rsvm"})

	rr := httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /: %d %s", rr.Code, rr.Body)
	}
	var st State
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.RunID != "h-run" || st.Events != 1 || st.RingCap != 4096 {
		t.Errorf("state: %+v", st)
	}

	rr = httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/dump", nil))
	if rr.Code != 200 {
		t.Fatalf("POST /dump: %d %s", rr.Code, rr.Body)
	}
	bundles, _ := Bundles(dir)
	if len(bundles) != 1 {
		t.Fatalf("POST /dump produced %d bundles, want 1", len(bundles))
	}

	rr = httptest.NewRecorder()
	r.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/dump", nil))
	if rr.Code != 404 {
		t.Errorf("GET /dump: %d, want 404", rr.Code)
	}
}
