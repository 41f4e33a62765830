package prof

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"adaptiverank/internal/obs"
)

func TestManifestRoundTripAndTornTail(t *testing.T) {
	dir := t.TempDir()
	mw, err := newManifestWriter(nil, dir, Record{RunID: "r1", Go: "go1.x", GOMAXPROCS: 4})
	if err != nil {
		t.Fatalf("newManifestWriter: %v", err)
	}
	recs := []Record{
		{Artifact: obs.ProfArtifactCPU, File: "0001-cpu.pb.gz", T0: 10, T1: 20},
		{Artifact: obs.ProfArtifactHeap, File: "0002-heap.pb.gz", Phase: obs.ProfPhaseExtract, T0: 20, T1: 20},
		{Artifact: obs.ProfArtifactCPU, File: "0003-cpu.pb.gz", T0: 20, T1: 50},
	}
	for _, r := range recs {
		if err := mw.append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := mw.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Simulate a crash mid-append: a torn final line must be ignored.
	f, err := os.OpenFile(filepath.Join(dir, ManifestName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"artifact","file":"trunc`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Header.RunID != "r1" || m.Header.GOMAXPROCS != 4 {
		t.Errorf("header: %+v", m.Header)
	}
	if len(m.Artifacts) != 3 {
		t.Fatalf("got %d artifacts, want 3 (torn tail must be dropped)", len(m.Artifacts))
	}
	if cpu := m.ByArtifact(obs.ProfArtifactCPU); len(cpu) != 2 {
		t.Errorf("ByArtifact(cpu) = %d records, want 2", len(cpu))
	}
}

func TestProfilerLifecycle(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	p, err := Start(Options{
		Dir:             dir,
		RunID:           "test-run",
		Fingerprint:     "fp-abc",
		CPUWindow:       time.Minute,
		MetricsInterval: 10 * time.Millisecond,
		Registry:        reg,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	rec := p.Recorder()
	if !rec.Enabled() {
		t.Fatal("profiler recorder must be enabled")
	}
	// Simulate a run: run > sample, rank, train-update phase spans.
	rec.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanRun, Span: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanSample, Span: 2, Parent: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanEnd, Name: obs.SpanSample, Span: 2, Parent: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanRank, Span: 3, Parent: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanEnd, Name: obs.SpanRank, Span: 3, Parent: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanStart, Name: obs.SpanDoc, Span: 4, Parent: 1})
	rec.Record(obs.Event{Kind: obs.KindSpanEnd, Name: obs.SpanDoc, Span: 4, Parent: 1})
	time.Sleep(30 * time.Millisecond) // let the metrics ticker fire
	rec.Record(obs.Event{Kind: obs.KindSpanEnd, Name: obs.SpanRun, Span: 1})
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Header.RunID != "test-run" || m.Header.Fingerprint != "fp-abc" {
		t.Errorf("header identity: %+v", m.Header)
	}
	if m.Header.Go == "" || m.Header.GOMAXPROCS == 0 {
		t.Errorf("header environment not stamped: %+v", m.Header)
	}

	// CPU windows rotate only on the CPUWindow clock, so a run shorter
	// than the window writes exactly one. It carries no phase: a window
	// can span several, and its samples carry the phase label instead.
	cpu := m.ByArtifact(obs.ProfArtifactCPU)
	if len(cpu) != 1 {
		t.Fatalf("got %d CPU windows, want 1 for a run shorter than the window", len(cpu))
	}
	if r := cpu[0]; r.Phase != "" || r.Span != 0 || r.T1 < r.T0 {
		t.Errorf("cpu window record: %+v", r)
	}

	// Phase-end snapshots: heap records attributed to sample and rank
	// with their span ids.
	heapPhases := map[string]int64{}
	for _, r := range m.ByArtifact(obs.ProfArtifactHeap) {
		heapPhases[r.Phase] = r.Span
	}
	if heapPhases[obs.SpanSample] != 2 || heapPhases[obs.SpanRank] != 3 {
		t.Errorf("phase snapshots missing or mis-attributed: %v", heapPhases)
	}
	// Run boundaries capture allocs+goroutine too.
	if n := len(m.ByArtifact(obs.ProfArtifactAllocs)); n < 3 {
		t.Errorf("got %d allocs snapshots, want >=3 (start, run open, run close)", n)
	}

	// Every manifest artifact file must exist and, for pprof kinds, be a
	// complete gzip stream.
	for _, r := range m.Artifacts {
		full := filepath.Join(dir, r.File)
		if _, err := os.Stat(full); err != nil {
			t.Errorf("artifact %s missing: %v", r.File, err)
			continue
		}
		if strings.HasSuffix(r.File, ".pb.gz") {
			if err := readGzip(full); err != nil {
				t.Errorf("artifact %s is not a complete gzip stream: %v", r.File, err)
			}
		}
	}

	// Metrics: at least the start, one tick, and the close sample.
	data, err := os.ReadFile(filepath.Join(dir, "metrics.jsonl"))
	if err != nil {
		t.Fatalf("metrics.jsonl: %v", err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("got %d metrics samples, want >=3", len(lines))
	}
	var ms MetricsSample
	if err := json.Unmarshal(lines[0], &ms); err != nil {
		t.Fatalf("metrics line: %v", err)
	}
	if len(ms.M) == 0 || ms.T == 0 {
		t.Errorf("empty metrics sample: %+v", ms)
	}
	if len(m.ByArtifact(obs.ProfArtifactMetrics)) != 1 {
		t.Error("metrics.jsonl not recorded in manifest")
	}

	// Counters moved.
	if n := reg.Counter(obs.MetricProfCPUWindows).Value(); n != 1 {
		t.Errorf("prof.cpu_windows = %d, want 1", n)
	}
	if reg.Counter(obs.MetricProfSnapshots).Value() == 0 {
		t.Error("prof.snapshots counter never incremented")
	}
}

func readGzip(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, zr)
	return err
}

// goroutinePhase returns the calling goroutine's phase label as the
// goroutine profile reports it, "" when the goroutine carries none.
func goroutinePhase() (string, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
		return "", err
	}
	// debug=1 prints one stanza per distinct stack and label set: a
	// count line, an optional "# labels: {...}" line, then the frames.
	for _, stanza := range strings.Split(buf.String(), "\n\n") {
		if !strings.Contains(stanza, "prof.goroutinePhase+") {
			continue
		}
		for _, line := range strings.Split(stanza, "\n") {
			raw, ok := strings.CutPrefix(line, "# labels: ")
			if !ok {
				continue
			}
			var labels map[string]string
			if err := json.Unmarshal([]byte(raw), &labels); err != nil {
				return "", fmt.Errorf("labels line %q: %w", line, err)
			}
			return labels[PhaseLabel], nil
		}
		return "", nil
	}
	return "", fmt.Errorf("calling goroutine not in the goroutine profile:\n%s", buf.String())
}

func TestPhaseLabelsFollowSpans(t *testing.T) {
	p, err := Start(Options{Dir: t.TempDir(), MetricsInterval: -1})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer p.Close()
	check := func(after, want string) {
		t.Helper()
		got, err := goroutinePhase()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("after %s: phase label %q, want %q", after, got, want)
		}
	}
	check("Start", obs.ProfPhaseIdle)

	start, end := obs.KindSpanStart, obs.KindSpanEnd
	steps := []struct {
		kind obs.Kind
		name string
		span int64
		want string
	}{
		{start, obs.SpanRun, 1, obs.ProfPhaseExtract},
		{start, obs.SpanSample, 2, obs.SpanSample},
		{end, obs.SpanSample, 2, obs.ProfPhaseExtract},
		{start, obs.SpanTrainInit, 3, obs.SpanTrainInit},
		{end, obs.SpanTrainInit, 3, obs.ProfPhaseExtract},
		{start, obs.SpanDetectorPrime, 4, obs.SpanDetectorPrime},
		{end, obs.SpanDetectorPrime, 4, obs.ProfPhaseExtract},
		{start, obs.SpanRank, 5, obs.SpanRank},
		// Non-phase spans leave the label alone, inside a phase and
		// between phases.
		{start, obs.SpanDoc, 6, obs.SpanRank},
		{start, obs.SpanDetect, 7, obs.SpanRank},
		{end, obs.SpanDetect, 7, obs.SpanRank},
		{end, obs.SpanDoc, 6, obs.SpanRank},
		{end, obs.SpanRank, 5, obs.ProfPhaseExtract},
		{start, obs.SpanDoc, 8, obs.ProfPhaseExtract},
		{end, obs.SpanDoc, 8, obs.ProfPhaseExtract},
		{start, obs.SpanTrainUpdate, 9, obs.SpanTrainUpdate},
		{end, obs.SpanTrainUpdate, 9, obs.ProfPhaseExtract},
		{end, obs.SpanRun, 1, obs.ProfPhaseIdle},
	}
	rec := p.Recorder()
	for _, s := range steps {
		rec.Record(obs.Event{Kind: s.kind, Name: s.name, Span: s.span})
		check(fmt.Sprintf("%s %s", s.kind, s.name), s.want)
		if s.kind == start && s.name == obs.SpanRank {
			// A goroutine started inside a phase, like a score worker,
			// inherits its label.
			type result struct {
				phase string
				err   error
			}
			ch := make(chan result)
			go func() {
				phase, err := goroutinePhase()
				ch <- result{phase, err}
			}()
			if r := <-ch; r.err != nil || r.phase != obs.SpanRank {
				t.Errorf("goroutine started inside rank: phase label %q (%v), want %q", r.phase, r.err, obs.SpanRank)
			}
		}
	}

	// The label contexts are built once: a phase span starting, which
	// takes no snapshot, allocates nothing.
	ev := obs.Event{Kind: start, Name: obs.SpanRank, Span: 10}
	if n := testing.AllocsPerRun(100, func() { rec.Record(ev) }); n != 0 {
		t.Errorf("recording a phase span start allocates %v times, want 0", n)
	}
}

func TestDirHandler(t *testing.T) {
	dir := t.TempDir()
	mw, err := newManifestWriter(nil, dir, Record{RunID: "h1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "0001-heap.pb.gz"), []byte("fake"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mw.append(Record{Artifact: obs.ProfArtifactHeap, File: "0001-heap.pb.gz", Phase: obs.ProfPhaseIdle}); err != nil {
		t.Fatal(err)
	}
	if err := mw.close(); err != nil {
		t.Fatal(err)
	}
	h := DirHandler(dir)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != 200 {
		t.Fatalf("GET /: %d %s", rr.Code, rr.Body)
	}
	var listing struct {
		Header    Record   `json:"header"`
		Artifacts []Record `json:"artifacts"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &listing); err != nil {
		t.Fatalf("listing JSON: %v", err)
	}
	if listing.Header.RunID != "h1" || len(listing.Artifacts) != 1 {
		t.Errorf("listing: %+v", listing)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/0001-heap.pb.gz", nil))
	if rr.Code != 200 || rr.Body.String() != "fake" {
		t.Errorf("GET artifact: %d %q", rr.Code, rr.Body)
	}

	for _, path := range []string{"/../secrets", "/nope.pb.gz", "/a/b"} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		if rr.Code != 404 {
			t.Errorf("GET %s: %d, want 404", path, rr.Code)
		}
	}
}
