package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T) (*Server, *Registry, *StreamRecorder, *RunTracker) {
	t.Helper()
	reg := NewRegistry()
	stream := NewStreamRecorder()
	runs := &RunTracker{}
	return NewServer(ServerOptions{Registry: reg, Stream: stream, Runs: runs}), reg, stream, runs
}

func TestServerMetricsEndpoint(t *testing.T) {
	srv, reg, _, _ := testServer(t)
	reg.Counter("pipeline.docs_processed").Add(5)
	reg.Histogram("pipeline.rank_seconds", []float64{0.1}).Observe(0.05)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q lacks exposition version", ct)
	}
	var body strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		body.WriteString(sc.Text())
		body.WriteByte('\n')
	}
	types, samples := promParse(t, body.String())
	if types["pipeline_docs_processed"] != "counter" {
		t.Errorf("missing counter family: %v", types)
	}
	found := false
	for _, s := range samples {
		if s.name == "pipeline_docs_processed" && s.value == 5 {
			found = true
		}
	}
	if !found {
		t.Error("counter sample missing from /metrics")
	}
	groupHistograms(t, types, samples) // validates bucket/type pairing
}

func TestServerHealthzAndRuns(t *testing.T) {
	srv, _, _, runs := testServer(t)
	runs.Record(Event{Kind: KindRunStarted, Name: "RSVM-IE", N: 1000, Val: 80, T: 1})
	runs.Record(Event{Kind: KindSampleLabelled, Useful: true})
	runs.Record(Event{Kind: KindDocExtracted, Useful: true})
	runs.Record(Event{Kind: KindDocExtracted, Useful: false})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" || health["runs_active"].(float64) != 1 {
		t.Errorf("healthz = %v", health)
	}

	resp, err = http.Get(ts.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	var got []RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(got) != 1 {
		t.Fatalf("runs = %d, want 1", len(got))
	}
	r := got[0]
	if r.Strategy != "RSVM-IE" || r.CollectionSize != 1000 || r.TotalUseful != 80 {
		t.Errorf("run header wrong: %+v", r)
	}
	if r.SampleDocs != 1 || r.SampleUseful != 1 || r.DocsProcessed != 2 || r.UsefulFound != 1 {
		t.Errorf("run counts wrong: %+v", r)
	}
	if !r.Running {
		t.Error("run must still be running")
	}
	// recall = 1 useful / (80 total - 1 sample) = 1/79
	if want := 1.0 / 79; r.Recall < want-1e-12 || r.Recall > want+1e-12 {
		t.Errorf("recall = %g, want %g", r.Recall, want)
	}
}

func TestServerEventsSSE(t *testing.T) {
	srv, _, stream, _ := testServer(t)
	stream.Record(Event{Kind: KindRunStarted, Name: "RSVM-IE"})
	stream.Record(Event{Kind: KindDocExtracted, Doc: 7, Useful: true})

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// A live event recorded after the subscription must also arrive.
	stream.Record(Event{Kind: KindRunFinished})

	sc := bufio.NewScanner(resp.Body)
	var ids []string
	var kinds []Kind
	for sc.Scan() && len(kinds) < 3 {
		line := sc.Text()
		if strings.HasPrefix(line, "id: ") {
			ids = append(ids, strings.TrimPrefix(line, "id: "))
		}
		if strings.HasPrefix(line, "data: ") {
			var e Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatalf("bad SSE data line %q: %v", line, err)
			}
			kinds = append(kinds, e.Kind)
		}
	}
	if len(kinds) != 3 || kinds[0] != KindRunStarted || kinds[1] != KindDocExtracted || kinds[2] != KindRunFinished {
		t.Fatalf("SSE kinds = %v (replay must precede live events)", kinds)
	}
	if len(ids) != 3 || ids[0] != "1" || ids[1] != "2" || ids[2] != "3" {
		t.Fatalf("SSE ids = %v, want seq order 1,2,3", ids)
	}
}

func TestServerEventsWithoutStream(t *testing.T) {
	srv := NewServer(ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
	// /metrics with no registry still serves an empty exposition.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("metrics status = %d, want 200", resp.StatusCode)
	}
}

func TestServerStartServesAndCloses(t *testing.T) {
	srv, reg, _, _ := testServer(t)
	reg.Counter("x").Inc()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz over real listener = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server must stop serving after Close")
	}
}

func TestServerAlertsEndpoint(t *testing.T) {
	wd := Watch(nil, WatchdogOptions{MaxFireRate: 0.5, FireWindow: 1})
	wd.Record(Event{Kind: KindRunStarted})
	wd.Record(Event{Kind: KindDetectorDecision, Fired: true})

	srv := NewServer(ServerOptions{Watchdog: wd})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	var alerts []Alert
	if err := json.NewDecoder(resp.Body).Decode(&alerts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(alerts) != 1 || alerts[0].Rule != RuleFireRate {
		t.Fatalf("alerts = %+v, want one fire-rate alert", alerts)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["alerts"].(float64) != 1 {
		t.Errorf("healthz alerts = %v, want 1", health["alerts"])
	}
}

func TestServerAlertsWithoutWatchdog(t *testing.T) {
	srv := NewServer(ServerOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var alerts []Alert
	if err := json.NewDecoder(resp.Body).Decode(&alerts); err != nil {
		t.Fatalf("/alerts without a watchdog must still be valid JSON: %v", err)
	}
	if len(alerts) != 0 {
		t.Errorf("alerts = %+v, want empty", alerts)
	}
}

// TestServerShutdownLeaksNoGoroutines is the shutdown audit: Close must
// reap the runtime sampler and every /events SSE handler even while a
// subscriber is still connected.
func TestServerShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	reg := NewRegistry()
	stream := NewStreamRecorder()
	srv := NewServer(ServerOptions{Registry: reg, Stream: stream, RuntimeInterval: time.Millisecond})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Connect a live SSE subscriber and prove the handler is pumping
	// before we pull the plug.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	resp, err := client.Get("http://" + addr + "/events")
	if err != nil {
		t.Fatal(err)
	}
	stream.Record(Event{Kind: KindRunStarted})
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("SSE stream not live: %v", err)
	}
	if stream.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", stream.Subscribers())
	}

	// Close with the subscriber still attached: the connection drops, the
	// handler goroutine unsubscribes and exits, the sampler stops.
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	resp.Body.Close()
	tr.CloseIdleConnections()

	if stream.Subscribers() != 0 {
		t.Errorf("subscribers after Close = %d, want 0", stream.Subscribers())
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines after Close = %d, want <= %d (server leaked)", got, before)
	}
}

func TestRunTrackerMultipleRunsAndPprofRoutes(t *testing.T) {
	srv, _, _, runs := testServer(t)
	for i := 0; i < 2; i++ {
		runs.Record(Event{Kind: KindRunStarted, Name: "BAgg-IE", N: 10})
		runs.Record(Event{Kind: KindDocExtracted, Useful: true})
		runs.Record(Event{Kind: KindRankFinished})
		runs.Record(Event{Kind: KindModelUpdated})
		runs.Record(Event{Kind: KindRunFinished, T: int64(i + 1)})
	}
	rs := runs.Runs()
	if len(rs) != 2 {
		t.Fatalf("runs = %d, want 2", len(rs))
	}
	for i, r := range rs {
		if r.ID != i || r.Running || r.Updates != 1 || r.Reranks != 1 || r.DocsProcessed != 1 {
			t.Errorf("run %d state wrong: %+v", i, r)
		}
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof cmdline status = %d", resp.StatusCode)
	}
}
