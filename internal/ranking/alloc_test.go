package ranking_test

// Allocation-budget tests: scoring and the per-example training step
// must allocate nothing in steady state. testing.AllocsPerRun runs the
// function once as a warm-up before measuring; an explicit warm call
// keeps that contract visible anyway. A non-zero budget here means the
// zero-alloc hot path regressed — the same property cmd/benchgate gates
// in CI from the committed BENCH_scoring.json trajectory.

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/learn"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/vector"
)

// allocDocs builds a small seeded corpus of normalized sparse vectors
// (the bench_test.go benchDocs shape at test scale).
func allocDocs(n int) []vector.Sparse {
	rng := rand.New(rand.NewSource(1))
	out := make([]vector.Sparse, n)
	for i := range out {
		m := make(map[int32]float64)
		for k := 0; k < 80; k++ {
			m[int32(rng.Intn(20000))] = 1
		}
		out[i] = vector.FromCounts(m).Normalize()
	}
	return out
}

func trainRanker(r ranking.Ranker, docs []vector.Sparse) {
	for i := 0; i < 500; i++ {
		r.Learn(docs[i%len(docs)], i%7 == 0)
	}
	r.Settle() // as the pipeline does before every rank pass
}

// assertZeroAllocs measures f's steady-state allocation rate after one
// warm call.
func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm: grows any lazily sized buffers
	if n := testing.AllocsPerRun(1000, f); n != 0 {
		t.Errorf("%s allocates %.3f times per run in steady state, want 0", name, n)
	}
}

func TestScoringAllocBudgets(t *testing.T) {
	docs := allocDocs(64)
	packed := make([]vector.Packed, len(docs))
	for i, d := range docs {
		packed[i] = d.Packed()
	}
	out := make([]float64, len(packed))

	rsvm := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 1})
	trainRanker(rsvm, docs)
	bagg := ranking.NewBAggIE(ranking.BAggOptions{})
	trainRanker(bagg, docs)

	i := 0
	assertZeroAllocs(t, "RSVMIE.ScoreBatch", func() {
		rsvm.ScoreBatch(packed, out)
	})
	assertZeroAllocs(t, "BAggIE.ScoreBatch", func() {
		bagg.ScoreBatch(packed, out)
	})
	assertZeroAllocs(t, "RSVMIE.Score", func() {
		rsvm.Score(docs[i%len(docs)])
		i++
	})
	assertZeroAllocs(t, "BAggIE.Score", func() {
		bagg.Score(docs[i%len(docs)])
		i++
	})

	// The per-example training step: hinge test, sub-gradient and the
	// lazy elastic-net step all update the dense weight vector in place.
	// Warmed over every document first, so the vector already spans
	// their ids and no step has to grow it.
	svm := learn.NewOnlineSVM(learn.ElasticNet{LambdaAll: 0.1, LambdaL2: 0.99}, true)
	for k, d := range docs {
		svm.Step(d, float64(1-2*(k%2)))
	}
	assertZeroAllocs(t, "OnlineSVM.Step", func() {
		svm.Step(docs[i%len(docs)], float64(1-2*(i%2)))
		i++
	})

	// RSVM-IE's pair step folds and adds each row in place, with no
	// difference vector; warmed over every pair first, so the weight
	// vector already spans their ids and no step has to grow it.
	pair := learn.NewOnlineSVM(learn.ElasticNet{LambdaAll: 0.1, LambdaL2: 0.99}, false)
	for k, d := range docs {
		pair.StepPair(d, docs[(k+1)%len(docs)])
	}
	assertZeroAllocs(t, "OnlineSVM.StepPair", func() {
		pair.StepPair(docs[i%len(docs)], docs[(i+1)%len(docs)])
		i++
	})

	// Top-K selection into a warmed buffer (the Top-K detector's
	// per-step recompute, which settles its side classifier first): only
	// the k kept features are held.
	svm.Settle()
	var top []vector.WeightedFeature
	assertZeroAllocs(t, "Weights.AppendTopK", func() {
		top = svm.Weights().AppendTopK(top[:0], 200)
	})
}

// TestMarginPackedAllocBudget pins the margin kernel itself, on a weight
// vector built outside any ranker, at zero steady-state allocations,
// including across a mutation epoch: a proximal step and its settle do
// not grow the dense vector, so margins after them stay allocation-free
// too.
func TestMarginPackedAllocBudget(t *testing.T) {
	docs := allocDocs(64)
	packed := make([]vector.Packed, len(docs))
	for i, d := range docs {
		packed[i] = d.Packed()
	}
	w := vector.NewWeights()
	for i, d := range docs {
		w.AddSparse(0.1*float64(i%5), d)
	}
	i := 0
	assertZeroAllocs(t, "Weights.Margin", func() {
		w.Margin(packed[i%len(packed)], 0.5, nil)
		i++
	})

	// Mutate without growing the support, then measure again.
	w.Prox(0.99, 0.001)
	w.Settle()
	assertZeroAllocs(t, "Weights.Margin after mutation", func() {
		w.Margin(packed[i%len(packed)], 0, nil)
		i++
	})
}

// TestFeaturizerAllocBudgets pins featurization's allocations: a warm
// lookup makes none, a cold document whose tokens are all interned
// makes only its row's two slices, however long it is, and so does a
// training row of a cached document whose tuple tokens are all interned.
func TestFeaturizerAllocBudgets(t *testing.T) {
	f := ranking.NewFeaturizer()
	warm := &corpus.Document{ID: 0, Text: "The eruption of Mount Pinatubo buried Clark Air Base in ash."}
	assertZeroAllocs(t, "Featurizer.FeaturesPacked (warm)", func() {
		f.FeaturesPacked(warm)
	})

	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool items at random, so the cold path's pooled scratch is reallocated")
	}
	const runs = 200
	next := corpus.DocID(1)
	for _, words := range []int{10, 1000} {
		var b strings.Builder
		for k := 0; k < words; k++ {
			b.WriteString(" Token")
			b.WriteString(strconv.Itoa(k))
		}
		text := b.String()
		f.Features(&corpus.Document{ID: next, Text: text}) // interns every token
		next++
		// One document per call, so every call is cold; AllocsPerRun
		// adds one warm-up call to its runs.
		docs := make([]*corpus.Document, runs+1)
		for k := range docs {
			docs[k] = &corpus.Document{ID: next + corpus.DocID(k), Text: text}
		}
		k := 0
		n := testing.AllocsPerRun(runs, func() {
			f.Features(docs[k])
			k++
		})
		next += corpus.DocID(len(docs))
		if n > 2 {
			t.Errorf("cold Features of a %d-token document allocates %.1f times, want at most 2", words, n)
		}
	}
	tuples := []relation.Tuple{
		{Rel: relation.PH, Arg1: "Mount Pinatubo", Arg2: "Clark Air Base"},
		{Rel: relation.PH, Arg1: "Pinatubo", Arg2: "the ash of Luzon"},
	}
	f.TrainingFeatures(warm, tuples) // interns every tuple token
	if n := testing.AllocsPerRun(runs, func() { f.TrainingFeatures(warm, tuples) }); n > 2 {
		t.Errorf("warm TrainingFeatures allocates %.1f times, want at most 2", n)
	}
}
