package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaptiverank/internal/obs"
)

// runArgs calls run with args and returns its exit code and stdout; a
// panic fails the test, with exit code -1, instead of crashing it.
func runArgs(t *testing.T, args ...string) (code int, stdout string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("run %q panicked: %v", args, r)
			code = -1
		}
	}()
	var out bytes.Buffer
	code = run(args, &out, new(bytes.Buffer))
	return code, out.String()
}

// writeTrace writes one JSONL trace holding a complete run per
// strategy name, each over four ranked documents.
func writeTrace(t *testing.T, path string, strategies ...string) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	seq := int64(0)
	emit := func(e obs.Event) {
		seq++
		e.Seq, e.T = seq, seq*10
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range strategies {
		emit(obs.Event{Kind: obs.KindRunStarted, Name: s, N: 6, Val: 3})
		emit(obs.Event{Kind: obs.KindSampleLabelled, Doc: 1, Useful: true, Dur: time.Millisecond})
		emit(obs.Event{Kind: obs.KindRankFinished, N: 4, Dur: time.Millisecond})
		for doc := int64(2); doc < 6; doc++ {
			emit(obs.Event{Kind: obs.KindDocExtracted, Doc: doc, Useful: doc%2 == 0, Dur: time.Millisecond})
		}
		emit(obs.Event{Kind: obs.KindRunFinished, N: 4, Dur: 6 * time.Millisecond})
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunTrace(t *testing.T) {
	dir := t.TempDir()
	cur, base := filepath.Join(dir, "cur.jsonl"), filepath.Join(dir, "base.jsonl")
	writeTrace(t, cur, "BAgg-IE", "RSVM-IE")
	writeTrace(t, base, "Random")

	code, out := runArgs(t, cur)
	if code != 0 || !strings.Contains(out, "run 0: BAgg-IE") || !strings.Contains(out, "run 1: RSVM-IE") {
		t.Errorf("trace report: exit %d\n%s", code, out)
	}
	code, out = runArgs(t, "-run", "1", cur)
	if code != 0 || !strings.HasPrefix(out, "run 1: RSVM-IE") || strings.Contains(out, "run 0:") {
		t.Errorf("-run 1: exit %d\n%s", code, out)
	}
	if code, _ = runArgs(t, "-run", "2", cur); code != 1 {
		t.Errorf("-run 2 of a two-run trace: exit %d, want 1", code)
	}

	// -against names side A.
	code, out = runArgs(t, "-against", base, cur)
	lines := strings.Split(out, "\n")
	if code != 0 || len(lines) < 2 || strings.Join(strings.Fields(lines[1]), " ") != "Random BAgg-IE" {
		t.Errorf("-against: exit %d, want Random on side A\n%s", code, out)
	}
	code, out = runArgs(t, "-json", "-run", "1", "-against", base, cur)
	if code != 1 {
		t.Errorf("-run 1 against a one-run baseline: exit %d, want 1\n%s", code, out)
	}
	code, out = runArgs(t, "-json", "-against", base, cur)
	var cmp struct{ A, B struct{ Strategy string } }
	if err := json.Unmarshal([]byte(out), &cmp); code != 0 || err != nil || cmp.A.Strategy != "Random" || cmp.B.Strategy != "BAgg-IE" {
		t.Errorf("-json -against: exit %d, err %v, sides %+v", code, err, cmp)
	}

	code, out = runArgs(t, "-chrome", "-", cur)
	var chrome struct{ TraceEvents []json.RawMessage }
	if err := json.Unmarshal([]byte(out), &chrome); code != 0 || err != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("-chrome -: exit %d, err %v, %d events", code, err, len(chrome.TraceEvents))
	}
	file := filepath.Join(dir, "chrome.json")
	code, out = runArgs(t, "-chrome", file, cur)
	if data, err := os.ReadFile(file); code != 0 || err != nil || !json.Valid(data) ||
		out != "chrome trace written to "+file+" (load at https://ui.perfetto.dev)\n" {
		t.Errorf("-chrome FILE: exit %d, err %v\n%s", code, err, out)
	}
}

// TestRunUsageErrors holds the exit-code rule: a flag the path's
// artifacts cannot serve, two views at once, a negative -n or other
// than one path exits 2; a read or render error exits 1.
func TestRunUsageErrors(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.jsonl")
	writeTrace(t, trace, "RSVM-IE")
	profile := filepath.Join(dir, "prof")
	fixtureOld(t, profile)
	bundle := filepath.Join(dir, "bundle-0001-worker-panic")
	writeFixtureBundle(t, bundle)
	explained := fixtureExplain(t)
	noDecisions := writeExplainLog(t, explainHeader,
		`{"kind":"snapshot","span":3,"stage":"train-init","nnz":1,"l1":1,"l2":1}`)
	empty := t.TempDir()
	shared := fixtureExplain(t)
	fixtureOld(t, shared)

	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 2},
		{[]string{trace, trace}, 2},
		{[]string{"-n", "-1", explained}, 2},
		{[]string{"-n", "-1", bundle}, 2},
		{[]string{"-fired", "-n", "-1", explained}, 2},
		{[]string{"-provenance", "-fired", explained}, 2},
		{[]string{"-doc", "17", "-provenance", explained}, 2},
		{[]string{"-provenance", "-n", "3", explained}, 2},
		{[]string{"-doc", "17", "-n", "3", explained}, 2},
		{[]string{"-against", profile, "-n", "3", shared}, 2},
		{[]string{"-chrome", "-", "-against", trace, trace}, 2},
		{[]string{"-provenance", trace}, 2},
		{[]string{"-n", "3", trace}, 2},
		{[]string{"-json", explained}, 2},
		{[]string{"-run", "0", profile}, 2},
		{[]string{"-chrome", "-", bundle}, 2},
		{[]string{"-against", profile, explained}, 2},
		{[]string{"-fired", profile}, 2},
		{[]string{"-doc", "17", bundle}, 2},
		{[]string{"-n", "3", profile}, 2},
		{[]string{"-bogus", trace}, 2},

		{[]string{filepath.Join(dir, "missing")}, 1},
		{[]string{empty}, 1},
		{[]string{"-provenance", noDecisions}, 1},
		{[]string{"-doc", "29", explained}, 1},
		{[]string{"-doc", "99", explained}, 1},
		{[]string{"-against", empty, profile}, 1},

		{[]string{"-n", "3", bundle}, 0},
		{[]string{"-doc", "17", explained}, 0},
		{[]string{"-against", profile, profile}, 0},
		{[]string{"-h"}, 0},
	} {
		if code, _ := runArgs(t, tc.args...); code != tc.want {
			t.Errorf("run %q: exit %d, want %d", tc.args, code, tc.want)
		}
	}
}

// TestRunSharedDir reads a directory that -prof-dir and -explain-dir
// both named: with no view flag it prints both summaries, profile first.
func TestRunSharedDir(t *testing.T) {
	dir := fixtureExplain(t)
	fixtureOld(t, dir)
	var want bytes.Buffer
	if err := reportDir(&want, dir); err != nil {
		t.Fatal(err)
	}
	want.WriteString("\n")
	if err := reportSummary(&want, dir, 10); err != nil {
		t.Fatal(err)
	}
	if code, out := runArgs(t, dir); code != 0 || out != want.String() {
		t.Errorf("exit %d, output:\n%s\nwant:\n%s", code, out, want.String())
	}
	code, out := runArgs(t, "-provenance", dir)
	if code != 0 || strings.Contains(out, "profile directory:") {
		t.Errorf("-provenance on a shared dir: exit %d, want the explain view only\n%s", code, out)
	}
}
