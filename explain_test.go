package adaptiverank_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"adaptiverank"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/explain"
)

// The explain substrate's zero-perturbation contract, restated at the
// public API: arming model introspection — weight snapshots, score
// attributions, and the detector-decision sink — must not change what a
// run computes, not by a byte. And the artifact itself must uphold its
// exactness invariants: sampled attributions reconstruct their scores
// bitwise, and every detector decision carries structured evidence.

// runOnceExplained is runOnceJSON with the explain substrate armed: an
// Explainer wired through Options.Explain and its decision sink teed
// into the recorder. It returns the serialized result plus the decoded
// artifact, and fails if the substrate was not demonstrably live.
func runOnceExplained(t *testing.T, opts adaptiverank.Options) ([]byte, *explain.Log) {
	t.Helper()
	dir := t.TempDir()
	ex, err := adaptiverank.NewExplainer(adaptiverank.ExplainOptions{
		Dir: dir, RunID: "determinism", Fingerprint: "explain-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.Explain = ex
	opts.Recorder = adaptiverank.TeeRecorder(ex.Recorder())
	opts.Metrics = adaptiverank.NewMetrics()
	out := runOnceJSON(t, opts)
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := explain.ReadLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Snapshots) == 0 {
		t.Fatal("explain log has no model snapshots — introspection was not live")
	}
	if len(l.Attributions) == 0 {
		t.Fatal("explain log has no attributions — introspection was not live")
	}
	if opts.Detector != adaptiverank.NoDetector && len(l.Decisions) == 0 {
		t.Fatal("explain log has no detector decisions — the decision sink was not live")
	}
	return out, l
}

// TestRunByteIdenticalExplained: two explained runs agree byte for
// byte, and both agree with a bare, uninstrumented run — the substrate
// is a passive tee.
func TestRunByteIdenticalExplained(t *testing.T) {
	opts := adaptiverank.Options{Strategy: adaptiverank.RSVMIE, Detector: adaptiverank.ModC, Seed: 5, Workers: 4}
	first, _ := runOnceExplained(t, opts)
	second, _ := runOnceExplained(t, opts)
	if !bytes.Equal(first, second) {
		t.Errorf("two explained runs diverged:\nrun1: %.200s\nrun2: %.200s", first, second)
	}
	bare := runOnceJSON(t, opts)
	if !bytes.Equal(first, bare) {
		t.Errorf("explained run diverged from bare run:\nexpl: %.200s\nbare: %.200s", first, bare)
	}
}

// TestRunWorkerCountInvariantExplained: worker-count invariance holds
// with explain armed too, for the result and for the explain artifact,
// whose snapshots and attributions name feature ids. Wind-F updates the
// model with features first seen in the rank pass, so its artifact shows
// ids that follow score-worker scheduling.
func TestRunWorkerCountInvariantExplained(t *testing.T) {
	for _, det := range []adaptiverank.Detector{adaptiverank.ModC, adaptiverank.WindF} {
		seq, seqLog := runOnceExplained(t, adaptiverank.Options{Seed: 9, Detector: det, Workers: 1})
		par, parLog := runOnceExplained(t, adaptiverank.Options{Seed: 9, Detector: det, Workers: 8})
		if !bytes.Equal(seq, par) {
			t.Errorf("explained 1-worker and 8-worker runs diverged:\nw1: %.200s\nw8: %.200s", seq, par)
		}
		sameLogs(t, seqLog, parLog)
	}
}

// sameLogs fails unless two explain logs hold the same records, apart
// from the wall-clock stamp T on decision records. Span ids are unique
// across the process, so they are compared as offsets from the run's
// train-init snapshot span.
func sameLogs(t *testing.T, a, b *explain.Log) {
	t.Helper()
	if !reflect.DeepEqual(a.Header, b.Header) {
		t.Errorf("headers differ:\n%+v\n%+v", a.Header, b.Header)
	}
	kinds := []struct {
		name string
		a, b []explain.Record
	}{
		{"snapshot", a.Snapshots, b.Snapshots},
		{"attribution", a.Attributions, b.Attributions},
		{"decision", a.Decisions, b.Decisions},
	}
	for _, k := range kinds {
		if len(k.a) != len(k.b) {
			t.Errorf("%s records: %d vs %d", k.name, len(k.a), len(k.b))
			continue
		}
		for i := range k.a {
			ra, rb := k.a[i], k.b[i]
			ra.T, rb.T = 0, 0
			ra.Span -= a.Snapshots[0].Span
			rb.Span -= b.Snapshots[0].Span
			if !reflect.DeepEqual(ra, rb) {
				t.Errorf("%s record %d differs:\n%+v\n%+v", k.name, i, ra, rb)
				break
			}
		}
	}
}

// reconstruct folds an artifact attribution per the scoring contract:
// per member, contributions in recorded order plus bias give the
// margin; logistic members map through the sigmoid; members sum in
// order. Every operation mirrors the ranker's own fold, so the result
// must be bitwise equal to the recorded score.
func reconstruct(a explain.Record) float64 {
	score := 0.0
	for _, m := range a.Members {
		sum := 0.0
		for _, c := range m.Contribs {
			sum += c.Weight
		}
		sum += m.Bias
		if a.Logistic {
			score += 1 / (1 + math.Exp(-sum))
		} else {
			score += sum
		}
	}
	return score
}

// TestExplainArtifactInvariants drives a full run for both rankers and
// checks the artifact-level exactness contracts: attributions
// reconstruct their scores bitwise and every detector decision carries
// evidence stamped with its span and threshold.
func TestExplainArtifactInvariants(t *testing.T) {
	cases := map[string]adaptiverank.Options{
		"rsvm-modc": {Strategy: adaptiverank.RSVMIE, Detector: adaptiverank.ModC, Seed: 5, Workers: 4},
		"bagg-topk": {Strategy: adaptiverank.BAggIE, Detector: adaptiverank.TopK, Seed: 5, Workers: 4},
	}
	for name, opts := range cases {
		opts := opts
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, l := runOnceExplained(t, opts)

			for _, a := range l.Attributions {
				if got := reconstruct(a); got != a.Score {
					t.Fatalf("doc %d: reconstructed score %v != recorded %v", a.Doc, got, a.Score)
				}
				if opts.Strategy == adaptiverank.BAggIE && !a.Logistic {
					t.Fatalf("doc %d: BAgg attribution must be logistic", a.Doc)
				}
				for _, m := range a.Members {
					for _, c := range m.Contribs {
						if c.Weight == 0 {
							t.Fatalf("doc %d: zero contribution recorded for feature %d", a.Doc, c.Index)
						}
						if c.Name == "" {
							t.Fatalf("doc %d: contribution for feature %d lost its name", a.Doc, c.Index)
						}
					}
				}
			}

			for i, d := range l.Decisions {
				if d.Detector == "" {
					t.Fatalf("decision %d has no detector name", i)
				}
				if len(d.Evidence) == 0 {
					t.Fatalf("decision %d (%s) carries no evidence", i, d.Detector)
				}
				if _, ok := d.EvidenceNum(obs.EvidenceThreshold); !ok {
					t.Fatalf("decision %d (%s) evidence lacks the threshold", i, d.Detector)
				}
				if d.Span == 0 {
					t.Fatalf("decision %d (%s) is not stamped with its span", i, d.Detector)
				}
			}

			// The drift timeline must start at train-init and carry drift
			// stats from the first update on.
			if l.Snapshots[0].Stage != explain.StageTrainInit {
				t.Fatalf("first snapshot stage = %q", l.Snapshots[0].Stage)
			}
			for _, s := range l.Snapshots[1:] {
				if s.Stage != explain.StageTrainUpdate || s.DriftPrev == nil || s.DriftInit == nil {
					t.Fatalf("update snapshot incomplete: %+v", s)
				}
			}

			// Every snapshot lists the model's 15 strongest weights (all
			// of them when it has fewer) and at most 15 movers.
			full := 0
			for i, s := range l.Snapshots {
				if want := min(s.NNZ, 15); len(s.Top) != want || len(s.Movers) > 15 {
					t.Fatalf("snapshot %d of a model with %d weights lists %d top features and %d movers, want %d and at most 15",
						i, s.NNZ, len(s.Top), len(s.Movers), want)
				}
				if s.NNZ >= 15 {
					full++
				}
			}
			if full == 0 {
				t.Fatal("no snapshot of a model with 15 weights: the list length went unchecked")
			}
		})
	}
}
