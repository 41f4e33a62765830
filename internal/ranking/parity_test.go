package ranking_test

// Golden parity tests: the production RSVM-IE and BAgg-IE learners are
// trained next to the from-the-formulas reference oracles in
// reference.go on a fixed 200-document corpus, and every document's
// score must agree within tolerance. A divergence means the optimized
// implementation no longer computes the paper's update rule. Lives in an
// external test package because building the corpus labels pulls in
// internal/pipeline, which imports ranking.

import (
	"math"
	"testing"

	"adaptiverank/internal/extract"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/pipeline"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/textgen"
	"adaptiverank/internal/vector"
)

func instrumentRanker(t *testing.T, r obs.Instrumentable) {
	t.Helper()
	r.Instrument(obs.NewRegistry(), obs.Nop(), nil)
}

// parityTolerance bounds |production - reference| per score. The
// references apply the formulas' arithmetic eagerly, so production
// agrees with them to rounding, not bitwise: its weights pay the
// elastic-net step lazily, and RSVM-IE's pair step folds and adds the
// pair's two rows one after the other where the reference steps on their
// merged difference. The gap stays orders of magnitude under the
// tolerance (TestRSVMIEMatchesReferenceOverLongStream logs it).
const parityTolerance = 1e-9

// parityCorpus builds the fixed corpus: 200 documents, seed 99, with the
// PH relation boosted so the label stream contains both classes.
func parityCorpus(t *testing.T) (xs []vector.Sparse, ys []bool) {
	t.Helper()
	cfg := textgen.DefaultConfig(99, 200)
	cfg.DensityOverride = map[relation.Relation]float64{relation.PH: 0.2}
	coll, _ := textgen.Generate(cfg)
	labels := pipeline.ComputeLabels(extract.Get(relation.PH), coll)
	feat := ranking.NewFeaturizer()
	useful := 0
	for _, d := range coll.Docs() {
		xs = append(xs, feat.Features(d))
		u := labels.Useful(d.ID)
		ys = append(ys, u)
		if u {
			useful++
		}
	}
	if useful < 10 || useful > len(xs)-10 {
		t.Fatalf("degenerate label balance: %d/%d useful", useful, len(xs))
	}
	return xs, ys
}

func maxScoreDelta(xs []vector.Sparse, score, ref func(vector.Sparse) float64) (float64, int) {
	worst, at := 0.0, -1
	for i, x := range xs {
		if d := math.Abs(score(x) - ref(x)); d > worst {
			worst, at = d, i
		}
	}
	return worst, at
}

// maxBatchDelta is maxScoreDelta for the batch path: the whole corpus
// scored in one ScoreBatch call.
func maxBatchDelta(xs []vector.Sparse, ps ranking.PackedScorer, ref func(vector.Sparse) float64) (float64, int) {
	packed := make([]vector.Packed, len(xs))
	for i, x := range xs {
		packed[i] = x.Packed()
	}
	out := make([]float64, len(xs))
	ps.ScoreBatch(packed, out)
	worst, at := 0.0, -1
	for i, x := range xs {
		if d := math.Abs(out[i] - ref(x)); d > worst {
			worst, at = d, i
		}
	}
	return worst, at
}

// TestRSVMIEMatchesReference trains in four epochs and re-scores the
// whole corpus after each, through both Score and ScoreBatch: the
// pipeline re-ranks after every detector-triggered update, so scores
// must see every model update, not only the final state.
func TestRSVMIEMatchesReference(t *testing.T) {
	xs, ys := parityCorpus(t)
	prod := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 99})
	ref := ranking.NewReferenceRSVMIE(99)
	for epoch := 0; epoch < 4; epoch++ {
		lo, hi := epoch*len(xs)/4, (epoch+1)*len(xs)/4
		for i := lo; i < hi; i++ {
			prod.Learn(xs[i], ys[i])
			ref.Learn(xs[i], ys[i])
		}
		if d, at := maxScoreDelta(xs, prod.Score, ref.Score); d > parityTolerance {
			t.Errorf("epoch %d: RSVM-IE diverged from reference: |Δ| = %g at doc %d (prod %g, ref %g)",
				epoch, d, at, prod.Score(xs[at]), ref.Score(xs[at]))
		}
		if d, at := maxBatchDelta(xs, prod, ref.Score); d > parityTolerance {
			t.Errorf("epoch %d: RSVM-IE ScoreBatch diverged from reference: |Δ| = %g at doc %d",
				epoch, d, at)
		}
	}
	if prod.Steps() == 0 {
		t.Fatal("production learner took no gradient steps")
	}
	// The trained model must actually separate something — a parity pass
	// between two all-zero models would be vacuous.
	nonzero := false
	for _, x := range xs {
		if prod.Score(x) != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("trained RSVM-IE scores are all zero")
	}
}

// TestRSVMIEMatchesReferenceOverLongStream settles only after at least
// 20,000 pair steps — on the live workload one update folds thousands of
// documents, four pair steps each — cycling the corpus, and holds the
// scores of the pending model, then of the settled one, to the
// reference at the same tolerance.
func TestRSVMIEMatchesReferenceOverLongStream(t *testing.T) {
	xs, ys := parityCorpus(t)
	prod := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 99})
	ref := ranking.NewReferenceRSVMIE(99)
	for i := 0; prod.Steps() < 20000; i++ {
		x, y := xs[i%len(xs)], ys[i%len(xs)]
		prod.Learn(x, y)
		ref.Learn(x, y)
	}
	for _, stage := range []string{"pending", "settled"} {
		if stage == "settled" {
			prod.Settle()
		}
		d, at := maxScoreDelta(xs, prod.Score, ref.Score)
		t.Logf("%s after %d steps: max |Δ| = %g", stage, prod.Steps(), d)
		if d > parityTolerance {
			t.Errorf("%s after %d steps: RSVM-IE diverged from reference: |Δ| = %g at doc %d (prod %g, ref %g)",
				stage, prod.Steps(), d, at, prod.Score(xs[at]), ref.Score(xs[at]))
		}
		if d, at := maxBatchDelta(xs, prod, ref.Score); d > parityTolerance {
			t.Errorf("%s after %d steps: RSVM-IE ScoreBatch diverged from reference: |Δ| = %g at doc %d",
				stage, prod.Steps(), d, at)
		}
	}
}

func TestBAggIEMatchesReference(t *testing.T) {
	xs, ys := parityCorpus(t)
	prod := ranking.NewBAggIE(ranking.BAggOptions{})
	ref := ranking.NewReferenceBAggIE()
	for i, x := range xs {
		prod.Learn(x, ys[i])
		ref.Learn(x, ys[i])
	}
	if d, at := maxScoreDelta(xs, prod.Score, ref.Score); d > parityTolerance {
		t.Errorf("BAgg-IE diverged from reference: |Δ| = %g at doc %d (prod %g, ref %g)",
			d, at, prod.Score(xs[at]), ref.Score(xs[at]))
	}
	if d, at := maxBatchDelta(xs, prod, ref.Score); d > parityTolerance {
		t.Errorf("BAgg-IE ScoreBatch diverged from reference: |Δ| = %g at doc %d", d, at)
	}
	// An untrained committee scores 3*sigmoid(0) = 1.5 everywhere; the
	// trained one must have moved off that point.
	moved := false
	for _, x := range xs {
		if math.Abs(prod.Score(x)-1.5) > 1e-6 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("trained BAgg-IE never moved off the untrained score")
	}
}

// TestReferenceParityUnderInstrumentation re-runs the RSVM parity with
// observability attached to the production learner: instrumentation must
// not change a single score bit.
func TestReferenceParityUnderInstrumentation(t *testing.T) {
	xs, ys := parityCorpus(t)
	prod := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 99})
	plain := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 99})
	instrumentRanker(t, prod)
	for i, x := range xs {
		prod.Learn(x, ys[i])
		plain.Learn(x, ys[i])
	}
	for i, x := range xs {
		if prod.Score(x) != plain.Score(x) {
			t.Fatalf("instrumented score differs at doc %d: %g vs %g",
				i, prod.Score(x), plain.Score(x))
		}
	}
}
