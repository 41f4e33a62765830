package sinks_test

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"testing"
	"time"

	"adaptiverank"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/blackbox"
	"adaptiverank/internal/obs/explain"
	"adaptiverank/internal/obs/prof"
	"adaptiverank/internal/obs/sinks"
)

// allOn arms every sink under dir, serves on a free loopback port and
// turns one SLO rule on.
func allOn(dir string) sinks.Flags {
	return sinks.Flags{
		Trace:          filepath.Join(dir, "trace.jsonl"),
		Metrics:        true,
		Serve:          "127.0.0.1:0",
		SLOMaxFireRate: 0.001,
		ProfDir:        filepath.Join(dir, "prof"),
		ProfCPUWindow:  time.Hour, // one window: it rotates only on this clock
		Blackbox:       filepath.Join(dir, "box"),
		ExplainDir:     filepath.Join(dir, "explain"),
	}
}

func TestRegisterDeclaresEveryFlag(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f := sinks.Register(fs)
	var names []string
	fs.VisitAll(func(fl *flag.Flag) { names = append(names, fl.Name) })
	want := "blackbox explain-dir explain-top metrics prof-cpu-window prof-dir serve slo-max-fault-rate slo-max-fire-rate slo-max-p99 slo-min-recall-slope slo-window trace"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("flags = %s\nwant    %s", got, want)
	}
	if err := fs.Parse([]string{"-trace", "t.jsonl", "-slo-window", "7", "-prof-cpu-window", "3s", "-explain-top", "4"}); err != nil {
		t.Fatal(err)
	}
	if f.Trace != "t.jsonl" || f.SLOWindow != 7 || f.ProfCPUWindow != 3*time.Second || f.ExplainTop != 4 {
		t.Fatalf("parsed flags = %+v", *f)
	}
}

// TestOpenEverySink runs a small pipeline through every sink, then reads
// each artifact back with its own reader.
func TestOpenEverySink(t *testing.T) {
	dir := t.TempDir()
	f := allOn(dir)
	var notices bytes.Buffer
	s, err := sinks.Open(context.Background(), f, "run-1", "fp-1", &notices)
	if err != nil {
		t.Fatal(err)
	}

	coll, err := adaptiverank.GenerateCorpus(3, 300)
	if err != nil {
		t.Fatal(err)
	}
	res, err := adaptiverank.RunContext(s.Ctx, coll, adaptiverank.BuiltinExtractor(adaptiverank.PersonCareer), adaptiverank.Options{
		Seed: 3, Strategy: adaptiverank.RSVMIE, Detector: adaptiverank.ModC,
		Metrics: s.Registry, Recorder: s.Recorder, Explain: s.Explainer,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The banner names the bound address; every mounted route it lists
	// must answer.
	m := regexp.MustCompile(`observability server on http://(\S+) `).FindStringSubmatch(notices.String())
	if m == nil {
		t.Fatalf("no server banner in notices:\n%s", notices.String())
	}
	for _, route := range []string{"/healthz", "/metrics", "/runs", "/alerts", "/debug/blackbox", "/profiles/", "/model/weights", "/explain"} {
		resp, err := http.Get("http://" + m[1] + route)
		if err != nil {
			t.Fatalf("GET %s: %v", route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", route, resp.StatusCode)
		}
	}

	if _, err := s.Blackbox.Dump(obs.DumpReasonManual); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	s.Report(&report)
	for _, want := range []string{"postmortem: ", "--- metrics ---", "explain.decisions "} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, report.String())
		}
	}
	if code := s.Close(0); code != 0 {
		t.Fatalf("Close = %d, want 0", code)
	}
	for _, want := range []string{"profiles written to ", "explain artifact written to ", "trace written to "} {
		if !strings.Contains(notices.String(), want) {
			t.Errorf("notices lack %q:\n%s", want, notices.String())
		}
	}

	tf, err := os.Open(f.Trace)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	events, err := obs.ReadEventsPartial(tf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Kind != obs.KindRunStarted || events[len(events)-1].Kind != obs.KindRunFinished {
		t.Fatalf("trace: %d events, want run-started ... run-finished", len(events))
	}

	log, err := explain.ReadLog(f.ExplainDir)
	if err != nil {
		t.Fatal(err)
	}
	if log.Header.RunID != "run-1" || log.Header.Fingerprint != "fp-1" {
		t.Errorf("explain header = %q/%q", log.Header.RunID, log.Header.Fingerprint)
	}
	if len(log.Decisions) != len(res.Order) {
		t.Errorf("explain decisions = %d, want one per ranked document (%d)", len(log.Decisions), len(res.Order))
	}

	man, err := prof.ReadManifest(f.ProfDir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Header.RunID != "run-1" || len(man.ByArtifact(obs.ProfArtifactCPU)) != 1 || len(man.ByArtifact(obs.ProfArtifactMetrics)) != 1 {
		t.Errorf("manifest: run %q, %d CPU windows, %d metrics files; want run-1, 1, 1",
			man.Header.RunID, len(man.ByArtifact(obs.ProfArtifactCPU)), len(man.ByArtifact(obs.ProfArtifactMetrics)))
	}

	bundles, err := blackbox.Bundles(f.Blackbox)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) == 0 || !strings.HasSuffix(bundles[len(bundles)-1], obs.DumpReasonManual) {
		t.Fatalf("bundles = %v, want the manual dump last", bundles)
	}
}

// openFDs counts the process's open file descriptors, or skips the test
// where /proc does not list them.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(fds)
}

// TestOpenFailureClosesOpened fails Open at its middle and at its last
// step and requires every sink opened before the failure to be released.
func TestOpenFailureClosesOpened(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(dir string, f *sinks.Flags)
		want  string // prefix of the error
	}{
		{"explain-dir is a file", func(dir string, f *sinks.Flags) {
			f.ExplainDir = filepath.Join(dir, "file")
			if err := os.WriteFile(f.ExplainDir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}, "explain: mkdir"},
		{"serve address invalid", func(dir string, f *sinks.Flags) {
			f.Serve = "127.0.0.1:99999"
		}, "obs: serve:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			f := allOn(dir)
			tc.spoil(dir, &f)
			before := openFDs(t)
			var notices bytes.Buffer
			s, err := sinks.Open(context.Background(), f, "", "", &notices)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("Open = %v, %v; want an error starting %q", s, err, tc.want)
			}
			if after := openFDs(t); after != before {
				t.Errorf("open files: %d before Open, %d after its failure", before, after)
			}
			if notices.Len() != 0 {
				t.Errorf("a failed Open announced artifacts:\n%s", notices.String())
			}
			// A profiler left running would still hold the process's one
			// CPU profile.
			if err := pprof.StartCPUProfile(io.Discard); err != nil {
				t.Fatalf("CPU profile still held after a failed Open: %v", err)
			}
			pprof.StopCPUProfile()
		})
	}
}

// watcherRunning reports whether the SIGQUIT watcher goroutine exists.
func watcherRunning() bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("sinks.(*Sinks).watchSIGQUIT"))
}

// TestSIGQUITPostmortem sends SIGQUIT to an open assembly: the watcher
// must write a signal bundle and cancel Ctx, and after Close the watcher
// must leave, with the bundle on disk.
func TestSIGQUITPostmortem(t *testing.T) {
	dir := t.TempDir()
	s, err := sinks.Open(context.Background(), sinks.Flags{Blackbox: dir}, "", "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// A watcher left registered would catch the SIGQUITs of later runs.
	open := true
	defer func() {
		if open {
			s.Close(0)
		}
	}()
	// Open may return before the watcher goroutine is first scheduled.
	for deadline := time.Now().Add(10 * time.Second); !watcherRunning(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("no SIGQUIT watcher after Open")
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Ctx.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("SIGQUIT did not cancel Ctx")
	}
	open = false
	if code := s.Close(0); code != 0 {
		t.Fatalf("Close = %d", code)
	}
	// Close returns once the watcher's deferred close(s.watched) has run,
	// which can be before the goroutine leaves the stacks watcherRunning
	// scans.
	for deadline := time.Now().Add(10 * time.Second); watcherRunning(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("SIGQUIT watcher still running after Close")
		}
	}
	bundles, err := blackbox.Bundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 1 || !strings.HasSuffix(bundles[0], obs.DumpReasonSignal) {
		t.Fatalf("bundles = %v, want one signal bundle", bundles)
	}
}

// TestCloseCode keeps the caller's code, except that a sink failing to
// close turns a clean exit into 1.
func TestCloseCode(t *testing.T) {
	s, err := sinks.Open(context.Background(), sinks.Flags{}, "", "", io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if s.Recorder != nil || s.Registry != nil {
		t.Fatalf("no flags set, yet Recorder=%v Registry=%v", s.Recorder, s.Registry)
	}
	if code := s.Close(130); code != 130 {
		t.Fatalf("Close(130) = %d", code)
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full to fail a trace write: %v", err)
	}
	for _, tc := range []struct{ in, want int }{{0, 1}, {130, 130}} {
		var notices bytes.Buffer
		s, err := sinks.Open(context.Background(), sinks.Flags{Trace: "/dev/full"}, "", "", &notices)
		if err != nil {
			t.Fatal(err)
		}
		s.Recorder.Record(obs.Event{Kind: obs.KindRunStarted})
		if code := s.Close(tc.in); code != tc.want {
			t.Errorf("Close(%d) after a failed trace write = %d, want %d", tc.in, code, tc.want)
		}
		if notices.Len() != 0 {
			t.Errorf("failed trace announced as written: %s", notices.String())
		}
	}
}
