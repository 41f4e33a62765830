package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"adaptiverank/internal/update"
)

// smokeDocs keeps the self-test at a few hundred documents per corpus.
const smokeDocs = 600

func smokeConfig(t *testing.T, w workload, trace bool) config {
	t.Helper()
	return config{w: w, seed: 1, trace: trace, docs: smokeDocs, corpora: 1, setupRuns: 1, log: io.Discard}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for each trace mode.
func benchmarkMetrics(t *testing.T) map[bool]map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	out := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		out[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		out[true][m.Name] = m.Unit
	}
	return out
}

// TestEveryMetricEmitted runs every workload at smoke scale, untraced and
// traced, and checks that the runs pass the output check (in the traced
// mode that includes the traced order digest matching the untraced one)
// and that exactly the metrics BENCHMARK.json names are emitted, each
// with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	want := benchmarkMetrics(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := bench(context.Background(), smokeConfig(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d",
					w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			for name, unit := range want[trace] {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, BENCHMARK.json says %q", w.name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[trace][name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, trace, name)
				}
			}
		}
	}
}

// hidingDetector embeds the update.Detector interface, which hides
// TopK.Prime from the pipeline's type assertion.
type hidingDetector struct{ update.Detector }

// TestInterfaceHidingWrapperCaught plants a wrapper that drops the
// detector's Prime method into the traced run and expects the digest
// check to reject that run.
func TestInterfaceHidingWrapperCaught(t *testing.T) {
	w, err := findWorkload("cached-bagg-topk")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig(t, w, true)
	var log strings.Builder
	cfg.log = &log
	cfg.wrapDetector = func(d update.Detector) update.Detector { return hidingDetector{d} }
	res, err := bench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("interface-hiding wrapper not caught: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if out := log.String(); !strings.Contains(out, "traced run") || !strings.Contains(out, "digest") {
		t.Errorf("failure not attributed to the traced run's digest:\n%s", out)
	}
}

// TestBadArguments checks that the command refuses unknown workloads and
// trace modes without printing a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cached-bagg-topk", "--trace", "2"},
	} {
		var out strings.Builder
		if code := realMain(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
