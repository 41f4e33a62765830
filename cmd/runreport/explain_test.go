package main

// Golden-fixture tests: the explain log is hand-written with fixed
// values, so every view renders byte-for-byte the same. Regenerate with
//
//	go test ./cmd/runreport -run TestGoldenExplain -update

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeExplainLog writes an explain directory whose log holds lines.
func writeExplainLog(t *testing.T, lines ...string) string {
	t.Helper()
	dir := t.TempDir()
	data := strings.Join(lines, "\n") + "\n"
	if err := os.WriteFile(filepath.Join(dir, "explain.jsonl"), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

const explainHeader = `{"kind":"header","run_id":"run-x","fingerprint":"fp-1","go":"go1.24.0","goos":"linux","goarch":"amd64","gomaxprocs":8}`

// fixtureExplain is a run with an initial model, one update, three
// attributed documents (one of them single-member and exact, one
// two-member and exact, one whose contributions miss its score) and
// two Mod-C fires, the second with no update after it.
func fixtureExplain(t *testing.T) string {
	return writeExplainLog(t,
		explainHeader,
		`{"kind":"snapshot","span":3,"stage":"train-init","nnz":3,"l1":2.5,"l2":1.5,"top":[{"index":4,"name":"ceo","weight":1.25},{"index":9,"weight":-0.75}]}`,
		`{"kind":"attribution","span":5,"pos":0,"doc":17,"rank":1,"score":0.375,"members":[{"bias":0.125,"margin":0.375,"contribs":[{"index":4,"name":"ceo","weight":0.5},{"index":9,"weight":-0.25}]}]}`,
		`{"kind":"decision","span":7,"pos":10,"seq":40,"t":1000,"detector":"modc","val":0.97,"evidence":[{"k":"cos","n":0.97},{"k":"threshold","n":0.9}]}`,
		`{"kind":"decision","span":8,"pos":20,"seq":60,"t":2000,"detector":"modc","val":0.93,"evidence":[{"k":"cos","n":0.93},{"k":"threshold","n":0.9}]}`,
		`{"kind":"decision","span":9,"pos":39,"seq":80,"t":3000,"detector":"modc","val":0.81,"fired":true,"evidence":[{"k":"cos","n":0.81},{"k":"threshold","n":0.9},{"k":"reason","s":"below-threshold"}]}`,
		`{"kind":"snapshot","span":10,"pos":40,"stage":"train-update","update":1,"nnz":4,"l1":3.5,"l2":2,"top":[{"index":4,"name":"ceo","weight":1.5},{"index":12,"name":"founder","weight":1},{"index":9,"weight":-0.5}],"drift_prev":{"l1":1.25,"l2":0.75,"cosine":0.96875,"entered":2,"left":1},"drift_init":{"l1":1.25,"l2":0.75,"cosine":0.96875,"entered":2,"left":1},"movers":[{"index":12,"name":"founder","weight":1},{"index":4,"name":"ceo","weight":0.25},{"index":9,"weight":0.25}],"added":2,"removed":1}`,
		`{"kind":"attribution","span":11,"pos":40,"doc":23,"rank":1,"score":0.875,"members":[{"margin":0.5,"contribs":[{"index":4,"name":"ceo","weight":0.5}]},{"margin":0.375,"contribs":[{"index":12,"name":"founder","weight":0.25},{"index":9,"weight":0.125}]}]}`,
		`{"kind":"attribution","span":11,"pos":40,"doc":29,"rank":2,"score":0.8,"members":[{"margin":0.75,"contribs":[{"index":4,"name":"ceo","weight":0.5},{"index":12,"name":"founder","weight":0.25}]}]}`,
		`{"kind":"decision","span":12,"pos":70,"seq":120,"t":4000,"detector":"modc","val":0.85,"fired":true,"evidence":[{"k":"cos","n":0.85},{"k":"threshold","n":0.9}]}`,
	)
}

func TestGoldenExplain(t *testing.T) {
	dir := fixtureExplain(t)
	for _, tc := range []struct {
		golden string
		render func(*bytes.Buffer) error
	}{
		{"explain_summary.golden", func(b *bytes.Buffer) error { return reportSummary(b, dir, 10) }},
		{"explain_provenance.golden", func(b *bytes.Buffer) error { return reportProvenance(b, dir) }},
		{"explain_fired.golden", func(b *bytes.Buffer) error { return reportFired(b, dir, 2) }},
		{"explain_doc.golden", func(b *bytes.Buffer) error { return reportDoc(b, dir, 23) }},
	} {
		var buf bytes.Buffer
		if err := tc.render(&buf); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		checkGolden(t, tc.golden, buf.Bytes())
	}
}

func TestExplainDocMismatch(t *testing.T) {
	dir := fixtureExplain(t)
	var buf bytes.Buffer
	err := reportDoc(&buf, dir, 29)
	if err == nil || !strings.Contains(err.Error(), "does not reconstruct") {
		t.Fatalf("reportDoc(29) error = %v, want a reconstruction mismatch", err)
	}
	checkGolden(t, "explain_doc_mismatch.golden", buf.Bytes())
}
