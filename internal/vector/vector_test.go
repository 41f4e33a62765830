package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sparseFromMap(m map[int32]float64) Sparse { return FromCounts(m) }

func TestNewSparseSortsAndMerges(t *testing.T) {
	s := NewSparse([]int32{5, 1, 5, 3}, []float64{2, 1, 3, 4})
	if got := s.At(5); got != 5 {
		t.Errorf("At(5) = %g, want 5 (duplicates summed)", got)
	}
	if got := s.At(1); got != 1 {
		t.Errorf("At(1) = %g, want 1", got)
	}
	if got := s.At(2); got != 0 {
		t.Errorf("At(2) = %g, want 0 (absent)", got)
	}
	if s.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", s.NNZ())
	}
	// Indices must be strictly increasing.
	prev := int32(-1)
	s.Range(func(i int32, v float64) {
		if i <= prev {
			t.Errorf("indices not strictly increasing: %d after %d", i, prev)
		}
		prev = i
	})
}

func TestNewSparseDropsCancellation(t *testing.T) {
	s := NewSparse([]int32{2, 2}, []float64{1, -1})
	if s.NNZ() != 0 {
		t.Errorf("NNZ = %d, want 0 after exact cancellation", s.NNZ())
	}
}

func TestNewSparseLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	NewSparse([]int32{1}, []float64{1, 2})
}

func TestDotKnownValue(t *testing.T) {
	a := sparseFromMap(map[int32]float64{0: 1, 2: 2, 5: 3})
	b := sparseFromMap(map[int32]float64{2: 4, 5: -1, 7: 10})
	if got, want := a.Dot(b), 2.0*4-3.0; got != want {
		t.Errorf("Dot = %g, want %g", got, want)
	}
}

// pairDiff accumulates a − b the way a pair step does: a is added, then
// b subtracted.
func pairDiff(a, b Sparse) *Weights {
	w := NewWeights()
	w.AddSparse(1, a)
	w.AddSparse(-1, b)
	return w
}

func TestSubKnownValue(t *testing.T) {
	a := sparseFromMap(map[int32]float64{1: 5, 3: 2})
	b := sparseFromMap(map[int32]float64{1: 5, 2: 7})
	d := pairDiff(a, b)
	if d.At(1) != 0 || d.At(2) != -7 || d.At(3) != 2 || d.NNZ() != 2 {
		t.Errorf("a − b = %v, want {2:-7, 3:2}", d.ToSparse())
	}
}

func TestNormalize(t *testing.T) {
	a := sparseFromMap(map[int32]float64{0: 3, 1: 4})
	n := a.Normalize()
	if math.Abs(n.L2()-1) > 1e-12 {
		t.Errorf("L2 after Normalize = %g, want 1", n.L2())
	}
	var zero Sparse
	if !zero.Normalize().Equal(zero) {
		t.Error("Normalize of zero vector must be a no-op")
	}
}

func TestCosineBoundsAndSelf(t *testing.T) {
	a := sparseFromMap(map[int32]float64{0: 1, 4: 2})
	if got := a.Cosine(a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self-cosine = %g, want 1", got)
	}
	var zero Sparse
	if got := a.Cosine(zero); got != 0 {
		t.Errorf("cosine with zero = %g, want 0", got)
	}
}

func TestScale(t *testing.T) {
	a := sparseFromMap(map[int32]float64{1: 2, 2: -3})
	if got := a.Scale(2).At(2); got != -6 {
		t.Errorf("Scale(2).At(2) = %g, want -6", got)
	}
	if a.Scale(0).NNZ() != 0 {
		t.Error("Scale(0) must be the zero vector")
	}
	if a.At(1) != 2 {
		t.Error("Scale must not mutate the receiver")
	}
}

// randomSparse generates arbitrary sparse vectors for property tests.
func randomSparse(r *rand.Rand) Sparse {
	n := r.Intn(12)
	m := make(map[int32]float64, n)
	for i := 0; i < n; i++ {
		m[int32(r.Intn(30))] = float64(r.Intn(21) - 10)
	}
	return FromCounts(m)
}

func TestQuickDotSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSparse(r), randomSparse(r)
		return math.Abs(a.Dot(b)-b.Dot(a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubConsistentWithDot(t *testing.T) {
	// (a-b)·c == a·c - b·c: a pair step's margin is linear in the pair.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomSparse(r), randomSparse(r), randomSparse(r)
		lhs := pairDiff(a, b).Margin(c.Packed(), 0, nil)
		rhs := a.Dot(c) - b.Dot(c)
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCauchySchwarz(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSparse(r), randomSparse(r)
		return math.Abs(a.Dot(b)) <= a.L2()*b.L2()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickNormTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomSparse(r), randomSparse(r)
		// ||a - b|| >= | ||a|| - ||b|| |
		return pairDiff(a, b).L2() >= math.Abs(a.L2()-b.L2())-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxIndex(t *testing.T) {
	var zero Sparse
	if zero.MaxIndex() != -1 {
		t.Errorf("MaxIndex of empty = %d, want -1", zero.MaxIndex())
	}
	s := sparseFromMap(map[int32]float64{3: 1, 17: 2})
	if s.MaxIndex() != 17 {
		t.Errorf("MaxIndex = %d, want 17", s.MaxIndex())
	}
}

func TestString(t *testing.T) {
	s := sparseFromMap(map[int32]float64{1: 2})
	if got := s.String(); got != "{1:2}" {
		t.Errorf("String = %q, want {1:2}", got)
	}
}
