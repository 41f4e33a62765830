package vector

import (
	"math"
	"slices"
	"testing"
)

// refWeights is a per-entry model of Weights: dense values (u while a
// step is pending, w = scale·u), what each entry has paid of the owed
// penalty, and every operation written entry by entry over the whole
// array — no support list, position index or support-aligned payments.
// FuzzWeightsMatchReference holds Weights to it bit for bit.
type refWeights struct {
	v, paid     []float64
	lazy        bool
	scale, owed float64
}

// value is entry i's weight as a settle would store it.
func (w *refWeights) value(i int) float64 {
	u := w.v[i]
	if !w.lazy || u == 0 {
		return u
	}
	a := math.Abs(u) - (w.owed - w.paid[i])
	if a <= 0 {
		return 0
	}
	return w.scale * math.Copysign(a, u)
}

func (w *refWeights) at(i int32) float64 {
	if int(i) < len(w.v) {
		return w.value(int(i))
	}
	return 0
}

func (w *refWeights) clone() *refWeights {
	c := &refWeights{v: make([]float64, len(w.v)), paid: make([]float64, len(w.v))}
	for i := range w.v {
		c.v[i] = w.value(i)
	}
	return c
}

func (w *refWeights) settle() {
	if !w.lazy {
		return
	}
	for i := range w.v {
		w.v[i], w.paid[i] = w.value(i), 0
	}
	w.lazy, w.owed = false, 0
}

// put stores the raw value v at entry i; an entry that becomes nonzero
// owes nothing yet.
func (w *refWeights) put(i int32, v float64) {
	for int(i) >= len(w.v) {
		w.v, w.paid = append(w.v, 0), append(w.paid, 0)
	}
	if w.v[i] == 0 && v != 0 {
		w.paid[i] = w.owed
	}
	if v == 0 {
		v = 0 // store +0, never −0
	}
	w.v[i] = v
}

func (w *refWeights) set(i int32, v float64) {
	w.settle()
	w.put(i, v)
}

func (w *refWeights) add(i int32, v float64) { w.set(i, w.at(i)+v) }

// pay settles what entry i owes in place and returns its raw value.
func (w *refWeights) pay(i int32) float64 {
	u := w.v[i]
	if !w.lazy || u == 0 {
		return u
	}
	if a := math.Abs(u) - (w.owed - w.paid[i]); a > 0 {
		w.v[i], w.paid[i] = math.Copysign(a, u), w.owed
	} else {
		w.v[i] = 0
	}
	return w.v[i]
}

func (w *refWeights) addSparse(a float64, x Sparse) {
	if a == 0 {
		return
	}
	if w.lazy {
		a /= w.scale
	}
	for k, i := range x.idx {
		var u float64
		if int(i) < len(w.v) {
			u = w.pay(i)
		}
		w.put(i, u+a*x.val[k])
	}
}

func (w *refWeights) catchUp(x Packed) float64 {
	var sum float64
	for k, i := range x.Idx {
		if int(i) >= len(w.v) {
			break
		}
		if w.lazy {
			sum += w.scale * w.pay(i) * x.Val[k]
		} else {
			sum += w.v[i] * x.Val[k]
		}
	}
	return sum
}

func (w *refWeights) prox(decay, thresh float64) {
	switch {
	case decay == 1 && thresh == 0:
		return
	case decay == 0:
		clear(w.v)
		w.lazy, w.owed = false, 0
		return
	case w.lazy && w.scale*decay < minScale:
		w.settle()
	}
	if !w.lazy {
		w.lazy, w.scale = true, 1
	}
	w.scale *= decay
	w.owed += thresh / w.scale
}

func (w *refWeights) appendTopK(dst []WeightedFeature, k int) []WeightedFeature {
	s := selection{dst: dst, base: len(dst), k: k}
	for i := range w.v {
		if v := w.value(i); v != 0 {
			s.offer(WeightedFeature{Index: int32(i), Weight: v})
		}
	}
	return s.sorted()
}

func (w *refWeights) l2() float64 {
	var sum float64
	for i := range w.v {
		v := w.value(i)
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
		sum += w.value(int(i)) * x.Val[k]
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

// FuzzWeightsMatchReference drives Weights and the per-entry reference
// through the same decoded operations — Set and Add (also past the end),
// AddSparse with and without exact cancellation, the lazy elastic-net
// step (Prox over the whole (decay, thresh) domain, paid by CatchUp and
// AddSparse, Settle), and clone-then-mutate-both — and requires the same
// bits for every stored value and every support slot's payment, the same
// pending scale and penalty, and the same At, NNZ, AppendTopK, L2 and
// Margin after each operation, with the support holding each nonzero
// index once and the position index pointing at its slot.
func FuzzWeightsMatchReference(f *testing.F) {
	// Prox's no-op (decay 1, thresh 0), a pure decay, AddSparse into a
	// pending step, a thresholded Prox paid by CatchUp, Settle, a decay
	// to zero, then a weight re-entering the support.
	f.Add([]byte{0, 0, 3, 9, 0, 0, 5, 247, 5, 0, 255, 0, 5, 0, 128, 0,
		3, 0, 2, 2, 3, 9, 7, 5, 5, 0, 200, 3, 8, 0, 2, 3, 9, 5, 6,
		9, 0, 5, 0, 0, 0, 1, 0, 3, 9})
	// Clone a pending vector, then mutate both copies: a step in the
	// clone, AddSparse and an exact cancellation in the original, a
	// CatchUp in the clone, Settle, and Set(i, −0).
	f.Add([]byte{0, 0, 1, 9, 0, 0, 2, 17, 5, 0, 230, 1, 7, 0, 5, 1, 100, 2,
		3, 0, 5, 2, 1, 9, 2, 9, 4, 0, 0, 8, 8, 1, 1, 2, 9, 9, 0, 6, 1, 2, 1,
		5, 1, 40, 7, 8, 1, 2, 1, 9, 2, 9})
	// AddSparse, an exact cancellation of everything it added, a sparse
	// vector whose duplicates fold to zero, Set(i, −0), and heavy
	// thresholds that clip every weight as CatchUp pays.
	f.Add([]byte{3, 0, 9, 3, 1, 9, 2, 17, 7, 247, 4, 0, 0, 8,
		3, 0, 9, 2, 1, 9, 1, 247, 6, 0, 2, 1, 5, 0, 250, 7, 5, 0, 250, 7,
		8, 0, 3, 1, 9, 2, 17, 7, 247, 3, 0, 9, 1, 1, 9, 9, 0})
	// Growth by a zero, by an add and by Set(i, 0) past the end, and a run
	// of tiny decays that takes the scale under its floor.
	f.Add([]byte{2, 0, 3, 0, 0, 2, 0, 0, 9, 1, 6, 0, 47, 0, 0, 0, 46, 250, 5, 0, 64, 1,
		5, 0, 1, 1, 5, 0, 1, 1, 5, 0, 1, 1, 5, 0, 1, 1, 5, 0, 1, 1,
		5, 0, 1, 1, 5, 0, 1, 1, 5, 0, 1, 1, 5, 0, 1, 1, 3, 0, 9, 1, 6, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		ws := []*Weights{NewWeights()}
		refs := []*refWeights{{}}
		for step := 0; len(r.data) > 0 && step < 256; step++ {
			op, pick := r.byte(), int(r.byte())%len(ws)
			w, ref := ws[pick], refs[pick]
			switch op % 10 {
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
				x := r.sparse()
				w.AddSparse(a, x)
				ref.addSparse(a, x)
			case 4: // AddSparse that cancels a run of weights exactly
				lo, n := int(r.byte()%48), int(r.byte()%8)
				var idx []int32
				var val []float64
				for i := lo; i < min(lo+n, len(ref.v)); i++ {
					if v := ref.value(i); v != 0 {
						idx, val = append(idx, int32(i)), append(val, -v)
					}
				}
				x := NewSparse(idx, val)
				w.AddSparse(1, x)
				ref.addSparse(1, x)
			case 5: // Prox, decay in [0, 1] and thresh ≥ 0
				decay := float64(r.byte()) / 255
				thresh := float64(r.byte()%8) / 8
				w.Prox(decay, thresh)
				ref.prox(decay, thresh)
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
			case 8: // CatchUp
				x := r.sparse().Packed()
				if got, want := w.CatchUp(x, 0), ref.catchUp(x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: CatchUp = %g, reference %g", step, got, want)
				}
			case 9: // Settle
				w.Settle()
				ref.settle()
			}
			for k := range ws {
				matchReference(t, step, ws[k], refs[k])
			}
		}
	})
}

// sparse decodes a sparse vector of up to 7 entries over indices [0, 56).
func (r *opReader) sparse() Sparse {
	n := int(r.byte() % 8)
	idx, val := make([]int32, n), make([]float64, n)
	for k := range idx {
		idx[k], val[k] = int32(r.byte()%56), r.value()
	}
	return NewSparse(idx, val)
}

// matchReference requires w to equal ref bit for bit in every stored
// value and every observable.
func matchReference(t *testing.T, step int, w *Weights, ref *refWeights) {
	t.Helper()
	if len(w.v) != len(ref.v) {
		t.Fatalf("step %d: length %d, reference %d", step, len(w.v), len(ref.v))
	}
	if w.lazy != ref.lazy || w.lazy && (math.Float64bits(w.scale) != math.Float64bits(ref.scale) ||
		math.Float64bits(w.owed) != math.Float64bits(ref.owed)) {
		t.Fatalf("step %d: pending step (%v, scale %g, owed %g), reference (%v, %g, %g)",
			step, w.lazy, w.scale, w.owed, ref.lazy, ref.scale, ref.owed)
	}
	var nonzero []int32
	nnz := 0
	for i, u := range ref.v {
		if math.Float64bits(w.v[i]) != math.Float64bits(u) {
			t.Fatalf("step %d: v[%d] = %g (%#x), reference %g (%#x)",
				step, i, w.v[i], math.Float64bits(w.v[i]), u, math.Float64bits(u))
		}
		if u != 0 {
			nonzero = append(nonzero, int32(i))
		}
		got, want := w.At(int32(i)), ref.value(i)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: At(%d) = %g, reference %g", step, i, got, want)
		}
		if want != 0 {
			nnz++
		}
	}
	if w.NNZ() != nnz {
		t.Fatalf("step %d: NNZ = %d, reference %d", step, w.NNZ(), nnz)
	}
	supp := slices.Clone(w.supp)
	slices.Sort(supp)
	if !slices.Equal(supp, nonzero) {
		t.Fatalf("step %d: support %v, nonzero indices %v", step, supp, nonzero)
	}
	if w.pos != nil {
		listed := 0
		for i, p := range w.pos {
			if p != 0 && (int(p) > len(w.supp) || w.supp[p-1] != int32(i)) {
				t.Fatalf("step %d: pos[%d] = %d, support %v", step, i, p, w.supp)
			}
			if p != 0 {
				listed++
			}
		}
		if listed != len(w.supp) {
			t.Fatalf("step %d: %d positions for a support of %d", step, listed, len(w.supp))
		}
	}
	if w.lazy {
		if w.pos == nil || len(w.paid) != len(w.supp) {
			t.Fatalf("step %d: pending step without a slot for every weight", step)
		}
		for k, i := range w.supp {
			if math.Float64bits(w.paid[k]) != math.Float64bits(ref.paid[i]) {
				t.Fatalf("step %d: paid of %d = %g, reference %g", step, i, w.paid[k], ref.paid[i])
			}
		}
	}
	for _, k := range []int{0, 1, 3, nnz} {
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
