package ranking

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/vector"
)

// synthetic featurized examples: useful docs share features 0..4, useless
// docs share 5..9, both share noise features 100+.
func example(r *rand.Rand, useful bool) vector.Sparse {
	m := make(map[int32]float64)
	base := int32(5)
	if useful {
		base = 0
	}
	m[base+int32(r.Intn(5))] = 1
	m[base+int32(r.Intn(5))] = 1
	m[100+int32(r.Intn(40))] = 1
	return vector.FromCounts(m).Normalize()
}

func trainRanker(t *testing.T, rk Ranker, n int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		useful := r.Intn(10) == 0 // 10% positive rate, like a sparse relation
		rk.Learn(example(r, useful), useful)
	}
}

func rankerSeparates(rk Ranker, seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	wins, total := 0, 0
	for i := 0; i < 300; i++ {
		u := rk.Score(example(r, true))
		x := rk.Score(example(r, false))
		total++
		if u > x {
			wins++
		}
	}
	return float64(wins) / float64(total)
}

func TestRSVMIESeparatesUsefulDocs(t *testing.T) {
	rk := NewRSVMIE(RSVMOptions{Seed: 1})
	trainRanker(t, rk, 3000, 2)
	if auc := rankerSeparates(rk, 3); auc < 0.9 {
		t.Errorf("pairwise accuracy = %.3f, want >= 0.9", auc)
	}
}

func TestBAggIESeparatesUsefulDocs(t *testing.T) {
	rk := NewBAggIE(BAggOptions{})
	trainRanker(t, rk, 3000, 4)
	if auc := rankerSeparates(rk, 5); auc < 0.85 {
		t.Errorf("pairwise accuracy = %.3f, want >= 0.85", auc)
	}
}

func TestBAggIEScoreRange(t *testing.T) {
	rk := NewBAggIE(BAggOptions{})
	trainRanker(t, rk, 500, 6)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		s := rk.Score(example(r, i%2 == 0))
		if s < 0 || s > float64(rk.Members()) {
			t.Fatalf("score %g outside [0, members]", s)
		}
	}
}

func TestRSVMCloneIndependence(t *testing.T) {
	rk := NewRSVMIE(RSVMOptions{Seed: 8})
	trainRanker(t, rk, 200, 9)
	before := rk.Model().ToSparse()
	c := rk.Clone()
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 500; i++ {
		c.Learn(example(r, i%2 == 0), i%2 == 0)
	}
	if !rk.Model().ToSparse().Equal(before) {
		t.Error("training a clone mutated the original RSVM-IE model")
	}
}

func TestBAggCloneIndependence(t *testing.T) {
	rk := NewBAggIE(BAggOptions{})
	trainRanker(t, rk, 200, 11)
	before := rk.Model().ToSparse()
	c := rk.Clone()
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 500; i++ {
		c.Learn(example(r, i%2 == 0), i%2 == 0)
	}
	if !rk.Model().ToSparse().Equal(before) {
		t.Error("training a clone mutated the original BAgg-IE model")
	}
}

func TestRSVMNoPairsWithoutBothLabels(t *testing.T) {
	rk := NewRSVMIE(RSVMOptions{Seed: 13})
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 100; i++ {
		rk.Learn(example(r, false), false) // only negatives: no pairs form
	}
	if rk.Steps() != 0 {
		t.Errorf("Steps = %d with single-label stream, want 0", rk.Steps())
	}
}

func TestRandomRankerIgnoresLearning(t *testing.T) {
	rk := NewRandomRanker(1)
	r := rand.New(rand.NewSource(2))
	rk.Learn(example(r, true), true)
	if rk.Model() != nil {
		t.Error("random ranker must have no model")
	}
}

func TestReservoirBounded(t *testing.T) {
	res := newReservoir(10, 1)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		res.add(example(r, true))
	}
	if res.len() != 10 {
		t.Errorf("reservoir size = %d, want cap 10", res.len())
	}
	if res.seen != 1000 {
		t.Errorf("seen = %d, want 1000", res.seen)
	}
}

// TestBAggQueueCap pins BAgg-IE's holdback queue bound: on a stream of
// useless documents each member's useless queue stops at 2,000 entries
// and keeps the newest ones (Top-K's twin queues are pinned in
// internal/update).
func TestBAggQueueCap(t *testing.T) {
	b := NewBAggIE(BAggOptions{})
	members := b.Members()
	const perMember = 2000 + 37
	for i := 0; i < perMember*members; i++ {
		b.Learn(vector.Binary([]int32{int32(i)}), false)
	}
	for m := 0; m < members; m++ {
		q := b.qNeg[m]
		if len(q) != 2000 || len(b.qPos[m]) != 0 {
			t.Fatalf("member %d queues hold %d useless and %d useful documents, want 2000 and 0",
				m, len(q), len(b.qPos[m]))
		}
		// Member m is dealt documents m, m+members, m+2·members, ...
		for j, x := range q {
			if want := int32((perMember-2000+j)*members + m); x.MaxIndex() != want {
				t.Fatalf("member %d queue[%d] is document %d, want %d (the newest 2000)", m, j, x.MaxIndex(), want)
			}
		}
	}
}

func TestReservoirSampleEmpty(t *testing.T) {
	res := newReservoir(4, 3)
	if _, ok := res.sample(); ok {
		t.Error("sample from empty reservoir must report !ok")
	}
}

func TestFeaturizerCachesAndNormalizes(t *testing.T) {
	f := NewFeaturizer()
	d := &corpus.Document{ID: 1, Text: "The lava and ash from the eruption"}
	a := f.Features(d)
	b := f.Features(d)
	if !a.Equal(b) {
		t.Error("cached features must be identical")
	}
	if f.CacheSize() != 1 {
		t.Errorf("CacheSize = %d, want 1", f.CacheSize())
	}
	if l2 := a.L2(); l2 < 0.999 || l2 > 1.001 {
		t.Errorf("features L2 = %g, want 1", l2)
	}
	// Stopwords must not be features.
	if _, ok := featureID(f, "w=the"); ok {
		t.Error("stopword leaked into the feature space")
	}
}

// featureID looks a feature name up in f's intern table without
// interning it; ok is false for names never interned and for stopwords.
func featureID(f *Featurizer, name string) (id int32, ok bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	id, ok = f.ids[strings.TrimPrefix(name, "w=")]
	return id, ok && id != stopword
}

func TestTrainingFeaturesBoostTupleAttributes(t *testing.T) {
	f := NewFeaturizer()
	d := &corpus.Document{ID: 2, Text: "A tsunami swept the coast of Hawaii today"}
	plain := f.Features(d)
	boosted := f.TrainingFeatures(d, []relation.Tuple{
		{Rel: relation.ND, Arg1: "tsunami", Arg2: "Hawaii"},
	})
	id, ok := featureID(f, "w=tsunami")
	if !ok {
		t.Fatal("w=tsunami missing from vocabulary")
	}
	idOther, _ := featureID(f, "w=swept")
	// After normalization, the tuple-attribute feature must carry more
	// relative weight than a plain word in the boosted vector.
	if boosted.At(id) <= boosted.At(idOther) {
		t.Errorf("boosted tsunami=%g <= swept=%g", boosted.At(id), boosted.At(idOther))
	}
	if plain.At(id) != plain.At(idOther) {
		t.Error("plain features must weight all content words equally")
	}
}

func TestTrainingFeaturesNoTuplesEqualsFeatures(t *testing.T) {
	f := NewFeaturizer()
	d := &corpus.Document{ID: 3, Text: "some plain text body"}
	if !f.TrainingFeatures(d, nil).Equal(f.Features(d)) {
		t.Error("TrainingFeatures(nil) must equal Features")
	}
}

func TestQuickRSVMScoreIsLinear(t *testing.T) {
	rk := NewRSVMIE(RSVMOptions{Seed: 20})
	trainRanker(t, rk, 500, 21)
	w := rk.Model()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := example(r, r.Intn(2) == 0)
		var dot float64
		x.Range(func(i int32, v float64) { dot += w.At(i) * v })
		diff := rk.Score(x) - dot
		return diff < 1e-9 && diff > -1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNames(t *testing.T) {
	if NewRSVMIE(RSVMOptions{}).Name() != "RSVM-IE" {
		t.Error("RSVM-IE name")
	}
	if NewBAggIE(BAggOptions{}).Name() != "BAgg-IE" {
		t.Error("BAgg-IE name")
	}
	if NewRandomRanker(1).Name() != "Random" {
		t.Error("Random name")
	}
}
