package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWeightsSetZeroDeletes(t *testing.T) {
	w := NewWeights()
	w.Set(3, 1.5)
	if w.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", w.NNZ())
	}
	w.Set(3, 0)
	if w.NNZ() != 0 {
		t.Errorf("NNZ = %d after Set(3,0), want 0 (sparsity invariant)", w.NNZ())
	}
}

func TestWeightsAddCancellationDeletes(t *testing.T) {
	w := NewWeights()
	w.Add(7, 2)
	w.Add(7, -2)
	if w.NNZ() != 0 {
		t.Errorf("NNZ = %d after cancellation, want 0", w.NNZ())
	}
}

func TestWeightsCloneIndependence(t *testing.T) {
	w := NewWeights()
	w.Set(1, 1)
	c := w.Clone()
	c.Set(1, 9)
	c.Set(2, 5)
	if w.At(1) != 1 || w.At(2) != 0 {
		t.Error("mutating a clone must not affect the original")
	}
}

func TestWeightsDotMatchesSparseDot(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSparse(r), randomSparse(r)
		w := NewWeights()
		a.Range(func(i int32, v float64) { w.Set(i, v) })
		return math.Abs(w.Margin(b.Packed(), 0, nil)-a.Dot(b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightsCosineMatchesSparseCosine(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSparse(r), randomSparse(r)
		wa, wb := NewWeights(), NewWeights()
		a.Range(func(i int32, v float64) { wa.Set(i, v) })
		b.Range(func(i int32, v float64) { wb.Set(i, v) })
		return math.Abs(wa.Cosine(wb)-a.Cosine(b)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWeightsToSparseRoundTrip(t *testing.T) {
	w := NewWeights()
	w.Set(2, 1)
	w.Set(9, -4)
	s := w.ToSparse()
	if s.At(2) != 1 || s.At(9) != -4 || s.NNZ() != 2 {
		t.Errorf("ToSparse = %v, want {2:1, 9:-4}", s)
	}
}

func TestTopKOrderingAndTies(t *testing.T) {
	w := NewWeights()
	w.Set(1, -5)
	w.Set(2, 3)
	w.Set(3, 5) // |w| ties with feature 1; lower index first
	w.Set(4, 0.1)
	top := w.TopK(3)
	if len(top) != 3 {
		t.Fatalf("len(TopK) = %d, want 3", len(top))
	}
	if top[0].Index != 1 || top[1].Index != 3 || top[2].Index != 2 {
		t.Errorf("TopK order = %v, want indices [1 3 2]", top)
	}
}

func TestTopKLargerThanSize(t *testing.T) {
	w := NewWeights()
	w.Set(1, 1)
	if got := len(w.TopK(10)); got != 1 {
		t.Errorf("len(TopK(10)) = %d, want 1", got)
	}
}

func TestAddSparse(t *testing.T) {
	w := NewWeights()
	w.Set(1, 1)
	w.AddSparse(2, sparseFromMap(map[int32]float64{1: 1, 2: 3}))
	if w.At(1) != 3 || w.At(2) != 6 {
		t.Errorf("AddSparse result = {1:%g, 2:%g}, want {1:3, 2:6}", w.At(1), w.At(2))
	}
	w.AddSparse(0, sparseFromMap(map[int32]float64{5: 9}))
	if w.At(5) != 0 {
		t.Error("AddSparse with factor 0 must be a no-op")
	}
}

func TestWeightsL1L2(t *testing.T) {
	w := NewWeights()
	w.Set(0, 3)
	w.Set(1, -4)
	if w.L1() != 7 {
		t.Errorf("L1 = %g, want 7", w.L1())
	}
	if math.Abs(w.L2()-5) > 1e-12 {
		t.Errorf("L2 = %g, want 5", w.L2())
	}
}
