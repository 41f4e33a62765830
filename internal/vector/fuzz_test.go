package vector

import (
	"math"
	"slices"
	"testing"
)

// refWeights is the dense weight vector as it was before Weights kept a
// support list: a nonzero counter beside the values, and Shrink and
// AppendTopK sweeping the whole array. FuzzWeightsMatchReference holds
// Weights to it bit for bit.
type refWeights struct {
	v   []float64
	nnz int
}

func (w *refWeights) clone() *refWeights {
	return &refWeights{v: slices.Clone(w.v), nnz: w.nnz}
}

func (w *refWeights) at(i int32) float64 {
	if uint(i) < uint(len(w.v)) {
		return w.v[i]
	}
	return 0
}

func (w *refWeights) set(i int32, v float64) {
	if int(i) >= len(w.v) {
		w.v = append(w.v, make([]float64, int(i)+1-len(w.v))...)
	}
	if w.v[i] == 0 {
		w.nnz++
	}
	if v == 0 {
		w.nnz--
		v = 0 // store +0, never −0
	}
	w.v[i] = v
}

func (w *refWeights) add(i int32, v float64) { w.set(i, w.at(i)+v) }

func (w *refWeights) addSparse(a float64, x Sparse) {
	if a == 0 {
		return
	}
	for k, i := range x.idx {
		w.add(i, a*x.val[k])
	}
}

func (w *refWeights) shrink(decay, thresh float64) {
	if decay == 1 && thresh == 0 {
		return
	}
	for i, v := range w.v {
		if v == 0 {
			continue
		}
		nv := math.Abs(v)*decay - thresh
		if nv <= 0 {
			w.v[i] = 0
			w.nnz--
			continue
		}
		if v < 0 {
			nv = -nv
		}
		w.v[i] = nv
	}
}

func (w *refWeights) appendTopK(dst []WeightedFeature, k int) []WeightedFeature {
	s := selection{dst: dst, base: len(dst), k: k}
	for i, v := range w.v {
		if v != 0 {
			s.offer(WeightedFeature{Index: int32(i), Weight: v})
		}
	}
	return s.sorted()
}

func (w *refWeights) l2() float64 {
	var sum float64
	for _, v := range w.v {
		sum += v * v
	}
	return math.Sqrt(sum)
}

func (w *refWeights) margin(x Packed) float64 {
	var sum float64
	for k, i := range x.Idx {
		if int(i) >= len(w.v) {
			break
		}
		sum += w.v[i] * x.Val[k]
	}
	return sum
}

// opReader decodes a fuzz input byte by byte, reading zeros once the
// input is exhausted.
type opReader struct{ data []byte }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// value decodes a dyadic weight in [-16, 16) in steps of 1/8 (a quarter
// of them 0), so sums and decays stay finite and cancellation is exact.
func (r *opReader) value() float64 {
	b := r.byte()
	if b%4 == 0 {
		return 0
	}
	return float64(int8(b)) / 8
}

// FuzzWeightsMatchReference drives Weights and the dense reference
// through the same decoded operations — Set and Add (also past the end),
// AddSparse with and without exact cancellation, Shrink over the whole
// (decay, thresh) domain, and clone-then-mutate-both — and requires the
// same bits for every entry and the same NNZ, AppendTopK, L2 and Margin
// after each operation, with the support holding each nonzero index once.
func FuzzWeightsMatchReference(f *testing.F) {
	// Shrink's no-op (decay 1, thresh 0), pure decay (thresh 0), decay to
	// zero, then a weight re-entering the support, growth, and a
	// thresholded shrink.
	f.Add([]byte{0, 0, 3, 9, 0, 0, 5, 247, 5, 0, 255, 0, 5, 0, 128, 0, 5, 0, 0, 0,
		1, 0, 3, 2, 2, 0, 1, 9, 0, 5, 0, 200, 3})
	// Clone, then mutate both copies: a leave in the clone, an add and an
	// exact cancellation in the original, a shrink and a new index in the
	// clone.
	f.Add([]byte{0, 0, 1, 9, 0, 0, 2, 17, 7, 0, 0, 1, 1, 0, 1, 0, 4, 5,
		5, 1, 128, 1, 0, 1, 30, 9, 4, 0, 0, 8, 3, 1, 2, 2, 2, 5, 30, 247})
	// AddSparse, an exact cancellation of everything it added, a sparse
	// vector whose duplicates fold to zero, and Set(i, −0).
	f.Add([]byte{3, 0, 9, 3, 1, 9, 2, 17, 7, 247, 4, 0, 0, 8,
		3, 0, 9, 2, 1, 9, 1, 247, 3, 0, 2, 2, 4, 6, 9, 6, 0, 4, 1})
	// Growth by a zero, by an add and by Set(i, 0) past the end.
	f.Add([]byte{2, 0, 3, 0, 0, 2, 0, 0, 9, 1, 6, 0, 47, 0, 0, 0, 46, 250, 5, 0, 64, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		ws := []*Weights{NewWeights()}
		refs := []*refWeights{{}}
		for step := 0; len(r.data) > 0 && step < 256; step++ {
			op, pick := r.byte(), int(r.byte())%len(ws)
			w, ref := ws[pick], refs[pick]
			switch op % 8 {
			case 0: // Set
				i, v := int32(r.byte()%48), r.value()
				w.Set(i, v)
				ref.set(i, v)
			case 1: // Add
				i, v := int32(r.byte()%48), r.value()
				w.Add(i, v)
				ref.add(i, v)
			case 2: // Set or Add past the end
				i, v := int32(len(ref.v))+int32(r.byte()%4), r.value()
				if r.byte()%2 == 0 {
					w.Set(i, v)
					ref.set(i, v)
				} else {
					w.Add(i, v)
					ref.add(i, v)
				}
			case 3: // AddSparse
				a := r.value()
				n := int(r.byte() % 8)
				idx, val := make([]int32, n), make([]float64, n)
				for k := range idx {
					idx[k], val[k] = int32(r.byte()%56), r.value()
				}
				x := NewSparse(idx, val)
				w.AddSparse(a, x)
				ref.addSparse(a, x)
			case 4: // AddSparse that cancels a run of weights exactly
				lo, n := int(r.byte()%48), int(r.byte()%8)
				var idx []int32
				var val []float64
				for i := lo; i < min(lo+n, len(ref.v)); i++ {
					if ref.v[i] != 0 {
						idx, val = append(idx, int32(i)), append(val, -ref.v[i])
					}
				}
				x := NewSparse(idx, val)
				w.AddSparse(1, x)
				ref.addSparse(1, x)
			case 5: // Shrink, decay in [0, 1] and thresh ≥ 0
				decay := float64(r.byte()) / 255
				thresh := float64(r.byte()%8) / 8
				w.Shrink(decay, thresh)
				ref.shrink(decay, thresh)
			case 6: // Set(i, ±0)
				i := int32(r.byte() % 48)
				z := 0.0
				if r.byte()%2 == 1 {
					z = math.Copysign(0, -1)
				}
				w.Set(i, z)
				ref.set(i, z)
			case 7: // clone; later operations mutate either copy
				if len(ws) < 4 {
					ws, refs = append(ws, w.Clone()), append(refs, ref.clone())
				}
			}
			for k := range ws {
				matchReference(t, step, ws[k], refs[k])
			}
		}
	})
}

// matchReference requires w to equal ref bit for bit in every observable.
func matchReference(t *testing.T, step int, w *Weights, ref *refWeights) {
	t.Helper()
	if len(w.v) != len(ref.v) {
		t.Fatalf("step %d: length %d, reference %d", step, len(w.v), len(ref.v))
	}
	var nonzero []int32
	for i, v := range ref.v {
		if math.Float64bits(w.v[i]) != math.Float64bits(v) {
			t.Fatalf("step %d: w[%d] = %g (%#x), reference %g (%#x)",
				step, i, w.v[i], math.Float64bits(w.v[i]), v, math.Float64bits(v))
		}
		if v != 0 {
			nonzero = append(nonzero, int32(i))
		}
	}
	if w.NNZ() != ref.nnz {
		t.Fatalf("step %d: NNZ = %d, reference %d", step, w.NNZ(), ref.nnz)
	}
	supp := slices.Clone(w.supp)
	slices.Sort(supp)
	if !slices.Equal(supp, nonzero) {
		t.Fatalf("step %d: support %v, nonzero indices %v", step, supp, nonzero)
	}
	for _, k := range []int{0, 1, 3, ref.nnz} {
		if got, want := w.AppendTopK(nil, k), ref.appendTopK(nil, k); !slices.Equal(got, want) {
			t.Fatalf("step %d: AppendTopK(%d) = %v, reference %v", step, k, got, want)
		}
	}
	if got, want := w.L2(), ref.l2(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: L2 = %g, reference %g", step, got, want)
	}
	probe := Packed{Idx: []int32{0, 2, 3, 7, 11, 19, 23, 31, 40, 47, 50, 55}}
	probe.Val = []float64{0.5, -1, 0.25, 2, -0.125, 1, 3, -2, 0.75, 1.5, -0.5, 4}
	if got, want := w.Margin(probe, 0, nil), ref.margin(probe); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d: Margin = %g, reference %g", step, got, want)
	}
}
