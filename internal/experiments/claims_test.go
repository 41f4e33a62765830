package experiments

// Claims tests: the paper's orderings, checked on what this reproduction
// reports at test scale. The parity tests compare the learners with
// reference implementations written next to them; these compare the
// suite's own results with the paper's claims, so a learner change that
// keeps its references but breaks what EXPERIMENTS.md reports fails here.
// They assert only what a learner change can move: ranking quality, how
// often the detectors fire, and the model's support.

import (
	"testing"

	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
)

// meanAUC is the AUC of spec averaged over the configured runs.
func meanAUC(t *testing.T, spec Spec) float64 {
	t.Helper()
	results, err := testEnv.RunAll(spec)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range results {
		sum += r.AUC
	}
	return sum / float64(len(results))
}

// TestClaimRSVMIEOutranksBAggIE: averaged over the seven relations, the
// base RSVM-IE ranking has a higher AUC than the base BAgg-IE ranking
// (Figs. 3–5, Table 4). Table 4's BAgg-IE > FC is not asserted: at test
// scale FC's mean AUC is higher than BAgg-IE's.
func TestClaimRSVMIEOutranksBAggIE(t *testing.T) {
	var rsvm, bagg float64
	for _, rel := range relation.All() {
		rsvm += meanAUC(t, Spec{Rel: rel, Strategy: "RSVM-IE"})
		bagg += meanAUC(t, Spec{Rel: rel, Strategy: "BAgg-IE"})
	}
	n := float64(len(relation.All()))
	t.Logf("mean AUC: RSVM-IE %.4f, BAgg-IE %.4f", rsvm/n, bagg/n)
	if rsvm <= bagg {
		t.Errorf("mean AUC: RSVM-IE %.4f does not beat BAgg-IE %.4f", rsvm/n, bagg/n)
	}
}

// TestClaimAdaptiveBeatsBase: on every relation, adapting RSVM-IE with
// Wind-F ranks better than the base model trained on the sample alone
// (Table 2's adaptive ≥ base, Fig. 8).
func TestClaimAdaptiveBeatsBase(t *testing.T) {
	for _, rel := range relation.All() {
		base := meanAUC(t, Spec{Rel: rel, Strategy: "RSVM-IE"})
		adaptive := meanAUC(t, Spec{Rel: rel, Strategy: "RSVM-IE", Detector: "Wind-F"})
		t.Logf("%s: base %.4f, Wind-F %.4f", rel.Code(), base, adaptive)
		if adaptive <= base {
			t.Errorf("%s: RSVM-IE+Wind-F AUC %.4f does not beat base %.4f", rel.Code(), adaptive, base)
		}
	}
}

// TestClaimDetectorsUpdateRarely: on every relation and run, Mod-C and
// Top-K update the model at most a fifth as often as Wind-F's fixed
// window (Fig. 9).
func TestClaimDetectorsUpdateRarely(t *testing.T) {
	updates := func(rel relation.Relation, det string) []int {
		results, err := testEnv.RunAll(Spec{Rel: rel, Strategy: "RSVM-IE", Detector: det})
		if err != nil {
			t.Fatal(err)
		}
		n := make([]int, len(results))
		for i, r := range results {
			n[i] = len(r.UpdatePositions)
		}
		return n
	}
	for _, rel := range relation.All() {
		windf := updates(rel, "Wind-F")
		for _, det := range []string{"Mod-C", "Top-K"} {
			for run, n := range updates(rel, det) {
				if 5*n > windf[run] {
					t.Errorf("%s run %d: %s updated %d times, Wind-F %d", rel.Code(), run, det, n, windf[run])
				}
			}
		}
	}
}

// TestClaimElasticNetSelectsFeatures: trained on each relation's whole dev
// stream, RSVM-IE with no L1 term (λL2 = 1) never clips a weight to zero,
// while the paper's λL2 = 0.99 keeps the model's support well under the
// pure-L2 support (Section 4's in-training feature selection). At test
// scale the ablation table's Mod-C runs fold too few documents for the L1
// term to show, so the claim is checked on the full stream.
func TestClaimElasticNetSelectsFeatures(t *testing.T) {
	dev := testEnv.Splits().Dev
	for _, rel := range relation.All() {
		labels := testEnv.Labels(rel, dev)
		feat := ranking.NewFeaturizer()
		pure := ranking.NewRSVMIE(ranking.RSVMOptions{LambdaL2: 1, Seed: 7})
		paper := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 7})
		var support []int32
		for _, d := range dev.Docs() {
			x, useful := feat.Features(d), labels.Useful(d.ID)
			pure.Learn(x, useful)
			paper.Learn(x, useful)
			w := pure.Model()
			for _, i := range support {
				if w.At(i) == 0 {
					t.Fatalf("%s: pure L2 clipped feature %d to zero at doc %d", rel.Code(), i, d.ID)
				}
			}
			support = support[:0]
			w.Range(func(i int32, _ float64) { support = append(support, i) })
		}
		nPure, nPaper := pure.Model().NNZ(), paper.Model().NNZ()
		t.Logf("%s: support λL2=0.99 %d, λL2=1 %d", rel.Code(), nPaper, nPure)
		if 4*nPaper > 3*nPure {
			t.Errorf("%s: λL2=0.99 support %d is not well under the pure-L2 support %d", rel.Code(), nPaper, nPure)
		}
	}
}
