package main

// Golden-fixture tests: the profile directories are hand-written
// manifest records with fixed timestamps, so the rendered reports are
// stable byte-for-byte. Regenerate with
//
//	go test ./cmd/runreport -run TestGolden -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/prof"
)

var update = flag.Bool("update", false, "rewrite golden files")

const base = int64(1_700_000_000_000_000_000)

// writeFixtureDir writes a profile directory's manifest from records.
func writeFixtureDir(t *testing.T, dir string, header prof.Record, artifacts []prof.Record) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var man bytes.Buffer
	header.Kind = prof.RecordHeader
	writeLine := func(r prof.Record) {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		man.Write(line)
		man.WriteByte('\n')
	}
	writeLine(header)
	for _, a := range artifacts {
		a.Kind = prof.RecordArtifact
		writeLine(a)
	}
	if err := os.WriteFile(filepath.Join(dir, prof.ManifestName), man.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// fixtureOld builds the baseline run's profile directory: two CPU
// windows spanning several phases, and the snapshots of a run with one
// sample, one rank and one train-update phase.
func fixtureOld(t *testing.T, dir string) {
	writeFixtureDir(t, dir,
		prof.Record{RunID: "run-old", Fingerprint: "fp-old", Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8},
		[]prof.Record{
			{Artifact: obs.ProfArtifactHeap, File: "0001-heap.pb.gz", Phase: obs.ProfPhaseIdle, T0: base, T1: base},
			{Artifact: obs.ProfArtifactAllocs, File: "0002-allocs.pb.gz", Phase: obs.ProfPhaseIdle, T0: base, T1: base},
			{Artifact: obs.ProfArtifactGoroutine, File: "0003-goroutine.pb.gz", Phase: obs.ProfPhaseIdle, T0: base, T1: base},
			{Artifact: obs.ProfArtifactHeap, File: "0005-heap.pb.gz", Phase: obs.SpanRun, Span: 1, T0: base + 1e6, T1: base + 1e6},
			{Artifact: obs.ProfArtifactHeap, File: "0006-heap.pb.gz", Phase: obs.SpanSample, Span: 2, T0: base + 10e6, T1: base + 10e6},
			{Artifact: obs.ProfArtifactGoroutine, File: "0007-goroutine.pb.gz", Phase: obs.SpanSample, Span: 2, T0: base + 10e6, T1: base + 10e6},
			{Artifact: obs.ProfArtifactHeap, File: "0008-heap.pb.gz", Phase: obs.SpanRank, Span: 3, T0: base + 30e6, T1: base + 30e6},
			{Artifact: obs.ProfArtifactGoroutine, File: "0009-goroutine.pb.gz", Phase: obs.SpanRank, Span: 3, T0: base + 30e6, T1: base + 30e6},
			{Artifact: obs.ProfArtifactCPU, File: "0004-cpu.pb.gz", T0: base, T1: base + 40e6},
			{Artifact: obs.ProfArtifactHeap, File: "0011-heap.pb.gz", Phase: obs.SpanTrainUpdate, Span: 9, T0: base + 55e6, T1: base + 55e6},
			{Artifact: obs.ProfArtifactCPU, File: "0010-cpu.pb.gz", T0: base + 40e6, T1: base + 60e6},
			{Artifact: obs.ProfArtifactMetrics, File: "metrics.jsonl", T0: base, T1: base + 60e6},
		})
}

// fixtureNew builds the current run: gomaxprocs drifted.
func fixtureNew(t *testing.T, dir string) {
	writeFixtureDir(t, dir,
		prof.Record{RunID: "run-new", Fingerprint: "fp-new", Go: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 4},
		[]prof.Record{
			{Artifact: obs.ProfArtifactHeap, File: "0001-heap.pb.gz", Phase: obs.ProfPhaseIdle, T0: base, T1: base},
			{Artifact: obs.ProfArtifactCPU, File: "0002-cpu.pb.gz", T0: base, T1: base + 95e6},
		})
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestGoldenReportDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "old")
	fixtureOld(t, dir)
	var buf bytes.Buffer
	if err := reportDir(&buf, dir); err != nil {
		t.Fatalf("reportDir: %v", err)
	}
	// The temp path varies per run; normalize it.
	out := bytes.ReplaceAll(buf.Bytes(), []byte(dir), []byte("OLD"))
	checkGolden(t, "report_dir.golden", out)
}

func TestGoldenDiff(t *testing.T) {
	oldDir := filepath.Join(t.TempDir(), "old")
	newDir := filepath.Join(t.TempDir(), "new")
	fixtureOld(t, oldDir)
	fixtureNew(t, newDir)
	var buf bytes.Buffer
	if err := diffDirs(&buf, oldDir, newDir); err != nil {
		t.Fatalf("diffDirs: %v", err)
	}
	out := bytes.ReplaceAll(buf.Bytes(), []byte(oldDir), []byte("OLD"))
	out = bytes.ReplaceAll(out, []byte(newDir), []byte("NEW"))
	checkGolden(t, "diff.golden", out)
}

// writeFixtureBundle writes a postmortem bundle of a worker panic whose
// ring holds four events.
func writeFixtureBundle(t *testing.T, dir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("events.jsonl", strings.Join([]string{
		`{"seq":97,"t":1,"kind":"rank-finished","n":120}`,
		`{"seq":98,"t":2,"kind":"doc-extracted","doc":41,"useful":true}`,
		`{"seq":99,"t":3,"kind":"detector-decision","name":"modc","val":12.5}`,
		`{"seq":100,"t":4,"kind":"worker-panic","name":"score","doc":42}`,
	}, "\n")+"\n")
	write("decisions.jsonl", `{"seq":99,"t":3,"kind":"detector-decision","name":"modc","val":12.5,"fired":true}`+"\n")
	write("spans.json", `[{"id":1,"name":"run","t":1},{"id":7,"parent":1,"name":"batch","t":2}]`+"\n")
	write("runtime.json", `{"goroutines":9,"gomaxprocs":8,"heap_alloc_bytes":2097152,"heap_sys_bytes":8388608,"num_gc":3}`+"\n")
	write("goroutines.txt", "goroutine 17 [running]:\nadaptiverank/internal/pipeline.(*run).score.func1()\n\t/repo/internal/pipeline/pipeline.go:389\n\ngoroutine 1 [chan receive]:\nmain.main()\n\t/repo/cmd/adaptiverank/main.go:40\n")
	write("meta.json", `{"run_id":"run-x","fingerprint":"fp-1","reason":"worker-panic",`+
		`"trigger":{"seq":100,"t":4,"kind":"worker-panic","name":"score","doc":42},`+
		`"t":1700000000000000000,"events":240,"dropped":140,"go":"go1.24.0","pid":4242}`+"\n")
}

func TestGoldenBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundle-0001-worker-panic")
	writeFixtureBundle(t, dir)
	var buf bytes.Buffer
	if err := reportBundle(&buf, dir, 3); err != nil {
		t.Fatalf("reportBundle: %v", err)
	}
	out := bytes.Replace(buf.Bytes(), []byte(dir), []byte("BUNDLE"), 1)
	checkGolden(t, "bundle.golden", out)
}
