package vector

// Randomized property tests over the sparse linear-algebra invariants the
// learners depend on: dot-product commutativity, scaling linearity,
// subtraction/cancellation, normalization, duplicate folding, and the
// Weights/Sparse correspondence. A fixed seed keeps the suite
// deterministic across runs.

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

const propertyTrials = 200

// randSparse draws a sparse vector with up to maxNNZ entries over a
// feature space of width; duplicate indices are allowed on purpose so
// NewSparse's folding path is exercised.
func randSparse(rng *rand.Rand, maxNNZ int, width int32) Sparse {
	n := rng.Intn(maxNNZ + 1)
	idx := make([]int32, n)
	val := make([]float64, n)
	for k := 0; k < n; k++ {
		idx[k] = rng.Int31n(width)
		val[k] = rng.NormFloat64()
	}
	return NewSparse(idx, val)
}

// dyadicSparse is randSparse with values in quarters from −2 to 2.
func dyadicSparse(rng *rand.Rand, maxNNZ int, width int32) Sparse {
	n := rng.Intn(maxNNZ + 1)
	idx := make([]int32, n)
	val := make([]float64, n)
	for k := 0; k < n; k++ {
		idx[k] = rng.Int31n(width)
		val[k] = float64(rng.Intn(17)-8) / 4
	}
	return NewSparse(idx, val)
}

func approxEq(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

func TestPropertySparseInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < propertyTrials; trial++ {
		s := randSparse(rng, 30, 64)
		u := randSparse(rng, 30, 64)
		a := rng.NormFloat64()

		// Sortedness and no stored zeros.
		s.Range(func(i int32, v float64) {
			if v == 0 {
				t.Fatalf("trial %d: stored zero at %d in %v", trial, i, s)
			}
		})
		for k := 1; k < s.NNZ(); k++ {
			if s.At(s.idx[k-1]) == 0 || s.idx[k-1] >= s.idx[k] {
				t.Fatalf("trial %d: indices not strictly increasing: %v", trial, s)
			}
		}

		// Dot commutativity and Cauchy–Schwarz.
		if d1, d2 := s.Dot(u), u.Dot(s); d1 != d2 {
			t.Fatalf("trial %d: dot not commutative: %g vs %g", trial, d1, d2)
		}
		if d := math.Abs(s.Dot(u)); d > s.L2()*u.L2()*(1+1e-12)+1e-12 {
			t.Fatalf("trial %d: |s·u| = %g violates Cauchy–Schwarz (%g)",
				trial, d, s.L2()*u.L2())
		}

		// Scaling linearity: (a·s)·u == a·(s·u), ||a·s|| == |a|·||s||.
		if got, want := s.Scale(a).Dot(u), a*s.Dot(u); !approxEq(got, want) {
			t.Fatalf("trial %d: scale linearity: %g != %g", trial, got, want)
		}
		if got, want := s.Scale(a).L2(), math.Abs(a)*s.L2(); !approxEq(got, want) {
			t.Fatalf("trial %d: scale norm: %g != %g", trial, got, want)
		}
		if s.Scale(0).NNZ() != 0 {
			t.Fatalf("trial %d: scaling by 0 must empty the vector", trial)
		}

		// Normalization: unit norm for non-zero vectors, zero unchanged.
		if s.NNZ() > 0 {
			if n := s.Normalize().L2(); !approxEq(n, 1) {
				t.Fatalf("trial %d: normalized L2 = %g", trial, n)
			}
			// Direction is preserved.
			if c := s.Cosine(s.Normalize()); !approxEq(c, 1) {
				t.Fatalf("trial %d: cos(s, normalize(s)) = %g", trial, c)
			}
		}
		var zero Sparse
		if zero.Normalize().NNZ() != 0 || zero.L2() != 0 {
			t.Fatal("zero vector must survive Normalize unchanged")
		}
		if c := s.Cosine(zero); c != 0 {
			t.Fatalf("trial %d: cosine with zero vector = %g", trial, c)
		}
	}
}

func TestPropertyNewSparseFoldsDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < propertyTrials; trial++ {
		n := rng.Intn(40)
		idx := make([]int32, n)
		val := make([]float64, n)
		counts := make(map[int32]float64)
		for k := 0; k < n; k++ {
			idx[k] = rng.Int31n(16) // narrow space forces duplicates
			val[k] = float64(rng.Intn(7) - 3)
			counts[idx[k]] += val[k]
		}
		got := NewSparse(idx, val)
		want := FromCounts(counts)
		if !got.Equal(want) {
			t.Fatalf("trial %d: NewSparse %v != FromCounts %v", trial, got, want)
		}
	}
}

// TestPropertyWeightsMatchDense drives a Weights vector and a plain map
// oracle through the same random mutations — Set/Add (also on ids past
// the current length), AddSparse, the lazy elastic-net step (Prox, then
// sometimes Settle) that drives weights across zero while the oracle
// applies the eager step to every weight, and clone-then-mutate — and
// checks every observable after each trial, the nonzero counter
// included. All values and decays are dyadic rationals, so every
// operation is exact: the lazy step must equal the eager one exactly, on
// support and values, settled or not.
func TestPropertyWeightsMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const width = 48
	mutate := func(w *Weights, oracle map[int32]float64) {
		put := func(i int32, v float64) {
			if v == 0 {
				delete(oracle, i)
			} else {
				oracle[i] = v
			}
		}
		switch rng.Intn(5) {
		case 0:
			i := rng.Int31n(width)
			v := float64(rng.Intn(9) - 4)
			w.Set(i, v)
			put(i, v)
		case 1:
			i := rng.Int31n(width)
			v := float64(rng.Intn(9) - 4)
			w.Add(i, v)
			put(i, oracle[i]+v)
		case 2:
			// Past the current length: the vector must grow.
			i := int32(len(w.v)) + rng.Int31n(4)
			v := float64(rng.Intn(9) - 4)
			if rng.Intn(2) == 0 {
				w.Set(i, v)
			} else {
				w.Add(i, v)
			}
			put(i, oracle[i]+v)
		case 3:
			a := float64(rng.Intn(5) - 2)
			x := dyadicSparse(rng, 10, width)
			w.AddSparse(a, x)
			x.Range(func(i int32, v float64) { put(i, oracle[i]+a*v) })
		case 4:
			decay := []float64{1, 0.5, 0.25, 0}[rng.Intn(4)]
			thresh := []float64{0, 0.25, 0.5, 1, 2}[rng.Intn(5)]
			w.Prox(decay, thresh)
			if rng.Intn(2) == 0 {
				w.Settle()
			}
			for i, v := range oracle {
				nv := math.Abs(v)*decay - thresh
				if nv <= 0 {
					delete(oracle, i)
					continue
				}
				if v < 0 {
					nv = -nv
				}
				oracle[i] = nv
			}
		}
	}

	for trial := 0; trial < propertyTrials; trial++ {
		w := NewWeights()
		oracle := make(map[int32]float64)
		for op := 0; op < 60; op++ {
			if rng.Intn(10) > 0 {
				mutate(w, oracle)
				continue
			}
			// Clone, then mutate the clone: the original keeps its
			// values and its nonzero count, and either may go on.
			c, co := w.Clone(), maps.Clone(oracle)
			for k := rng.Intn(4); k >= 0; k-- {
				mutate(c, co)
			}
			checkWeights(t, trial, c, co)
			checkWeights(t, trial, w, oracle)
			checkMovers(t, trial, w, oracle, c, co)
			if rng.Intn(2) == 0 {
				w, oracle = c, co
			}
		}
		checkWeights(t, trial, w, oracle)

		// Margin against a random probe.
		x := randSparse(rng, 12, width+8)
		var want float64
		x.Range(func(i int32, v float64) { want += oracle[i] * v })
		if got := w.Margin(x.Packed(), 0, nil); !approxEq(got, want) {
			t.Fatalf("trial %d: Margin = %g, oracle %g", trial, got, want)
		}

		// ToSparse round-trips through FromCounts semantics.
		if sp := w.ToSparse(); !sp.Equal(FromCounts(oracle)) {
			t.Fatalf("trial %d: ToSparse %v != oracle %v", trial, sp, FromCounts(oracle))
		}
	}
}

// checkWeights asserts every observable of w against the map oracle:
// At over the stored range and beyond, the nonzero counter, both norms,
// cosine against an independent vector, and TopK.
func checkWeights(t *testing.T, trial int, w *Weights, oracle map[int32]float64) {
	t.Helper()
	for i := int32(0); i < int32(len(w.v))+4; i++ {
		if got := w.At(i); got != oracle[i] {
			t.Fatalf("trial %d: At(%d) = %g, oracle %g", trial, i, got, oracle[i])
		}
	}
	if w.NNZ() != len(oracle) {
		t.Fatalf("trial %d: NNZ = %d, oracle %d", trial, w.NNZ(), len(oracle))
	}

	keys := make([]int32, 0, len(oracle))
	for i := range oracle {
		keys = append(keys, i)
	}
	slices.Sort(keys)
	var l1, l2 float64
	for _, i := range keys {
		l1 += math.Abs(oracle[i])
		l2 += oracle[i] * oracle[i]
	}
	if !approxEq(w.L1(), l1) || !approxEq(w.L2(), math.Sqrt(l2)) {
		t.Fatalf("trial %d: norms L1=%g/%g L2=%g/%g", trial, w.L1(), l1, w.L2(), math.Sqrt(l2))
	}

	o := NewWeights()
	probe := randSparse(rand.New(rand.NewSource(int64(trial))), 12, 64)
	o.AddSparse(1, probe)
	var dot float64
	probe.Range(func(i int32, v float64) { dot += oracle[i] * v })
	want := 0.0
	if l2 > 0 && probe.L2() > 0 {
		want = dot / (math.Sqrt(l2) * probe.L2())
	}
	c1, c2 := w.Cosine(o), o.Cosine(w)
	if !approxEq(c1, want) || c1 != c2 {
		t.Fatalf("trial %d: Cosine = %g / %g, oracle %g", trial, c1, c2, want)
	}

	// TopK: decreasing |weight|, index tiebreak, k-bounded. Also appended
	// after kept entries, into a buffer whose spare capacity holds stale
	// ones, and as TopMovers from the zero vector, whose deltas are the
	// weights themselves.
	all := make([]WeightedFeature, 0, len(keys))
	for _, i := range keys {
		all = append(all, WeightedFeature{Index: i, Weight: oracle[i]})
	}
	kept := []WeightedFeature{{Index: -1, Weight: 99}, {Index: -2, Weight: -99}}
	stale := make([]WeightedFeature, len(all)+1)
	for _, k := range topKBounds(len(all)) {
		want := sortTruncate(all, k)
		if got := w.TopK(k); !slices.Equal(got, want) {
			t.Fatalf("trial %d: TopK(%d) = %v, oracle %v", trial, k, got, want)
		}
		got := w.AppendTopK(slices.Clip(kept), k)
		if !slices.Equal(got[:len(kept)], kept) || !slices.Equal(got[len(kept):], want) {
			t.Fatalf("trial %d: AppendTopK(kept, %d) = %v, oracle %v after %v", trial, k, got, want, kept)
		}
		for i := range stale {
			stale[i] = WeightedFeature{Index: int32(1000 + i), Weight: 1e9}
		}
		if got := w.AppendTopK(stale[:0], k); !slices.Equal(got, want) {
			t.Fatalf("trial %d: AppendTopK(stale, %d) = %v, oracle %v", trial, k, got, want)
		}
		if got := TopMovers(NewWeights(), w, k); !slices.Equal(got, want) {
			t.Fatalf("trial %d: TopMovers(0, w, %d) = %v, oracle %v", trial, k, got, want)
		}
	}
}

// checkMovers asserts TopMovers(prev, cur, k) against sorting every
// nonzero delta cur−prev of the map oracles and truncating.
func checkMovers(t *testing.T, trial int, prev *Weights, po map[int32]float64, cur *Weights, co map[int32]float64) {
	t.Helper()
	union := maps.Clone(po)
	maps.Copy(union, co)
	keys := make([]int32, 0, len(union))
	for i := range union {
		keys = append(keys, i)
	}
	slices.Sort(keys)
	var deltas []WeightedFeature
	for _, i := range keys {
		if d := co[i] - po[i]; d != 0 {
			deltas = append(deltas, WeightedFeature{Index: i, Weight: d})
		}
	}
	for _, k := range topKBounds(len(deltas)) {
		if got, want := TopMovers(prev, cur, k), sortTruncate(deltas, k); !slices.Equal(got, want) {
			t.Fatalf("trial %d: TopMovers(%d) = %v, oracle %v", trial, k, got, want)
		}
	}
}

// topKBounds lists the k values worth checking for a selection over n
// candidates: empty, single, a middle cut, and both sides of n.
func topKBounds(n int) []int {
	ks := []int{0, 1, 5, n, n + 1}
	if n > 0 {
		ks = append(ks, n-1)
	}
	return ks
}

// sortTruncate is the selection oracle: fs in ascending index order,
// stably sorted by decreasing |weight| (so index breaks ties) and cut to k.
func sortTruncate(fs []WeightedFeature, k int) []WeightedFeature {
	out := slices.Clone(fs)
	sort.SliceStable(out, func(a, b int) bool {
		return math.Abs(out[a].Weight) > math.Abs(out[b].Weight)
	})
	return out[:min(k, len(out))]
}

// TestPropertyBinary pins the buffer-owning constructor Binary to its
// allocating form: FromCounts at count 1 followed by Normalize.
func TestPropertyBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < propertyTrials; trial++ {
		s := randSparse(rng, 30, 64)
		counts := make(map[int32]float64)
		for _, i := range s.idx {
			counts[i] = 1
		}
		if got, want := Binary(slices.Clone(s.idx)), FromCounts(counts).Normalize(); !got.Equal(want) {
			t.Fatalf("trial %d: Binary = %v, want %v", trial, got, want)
		}
	}
}
