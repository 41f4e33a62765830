package ranking

import (
	"adaptiverank/internal/corpus"
	"adaptiverank/internal/vector"
)

// PackedScorer is the zero-allocation batch scoring path. Rankers that
// implement it score vector.Packed document views through the weight
// vector's margin kernel without per-call allocation; the pipeline's
// score workers detect it by type assertion and fall back to
// Ranker.Score otherwise (RandomRanker, for one, has no linear model).
//
// Contract: ScoreBatch(xs, out) must leave out[i] bitwise equal to Score
// on the Sparse vector xs[i] views — the byte-identical-output and
// worker-count-invariance guarantees of the pipeline depend on the two
// being interchangeable mid-run (e.g. after a batch panic fallback).
// Both fold through the same kernel, so they are equal by construction.
type PackedScorer interface {
	// ScoreBatch scores xs[i] into out[i] for every i; len(out) must be
	// at least len(xs). It performs no per-document allocation: callers
	// own and reuse both slices across batches.
	ScoreBatch(xs []vector.Packed, out []float64)
}

// ScoreBatch implements PackedScorer: the RankSVM linear score w·x of
// every document.
func (r *RSVMIE) ScoreBatch(xs []vector.Packed, out []float64) {
	for k := range xs {
		out[k] = r.model.Margin(xs[k])
	}
}

// ScoreBatch implements PackedScorer: per document, the members'
// logistic scores summed in member order, exactly as Score does.
func (b *BAggIE) ScoreBatch(xs []vector.Packed, out []float64) {
	for k, x := range xs {
		var s float64
		for _, m := range b.members {
			s += m.Prob(x)
		}
		out[k] = s
	}
}

// FeaturesPacked returns a zero-copy packed view of d's cached feature
// vector. The view shares the immutable cached storage: callers must
// treat it as read-only (see vector.Packed's ownership contract).
func (f *Featurizer) FeaturesPacked(d *corpus.Document) vector.Packed {
	return f.Features(d).Packed()
}
