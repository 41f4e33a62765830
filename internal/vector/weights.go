package vector

import (
	"cmp"
	"math"
	"slices"
)

// Weights is a mutable weight vector stored densely: v[i] is the weight
// of feature i, indexed by the contiguous ids the featurizer assigns, and
// the slice grows as the extraction process observes new features.
// Features outside the support hold +0 (never −0). Beside the values,
// supp lists the support — every index whose weight is nonzero, each
// once, in no particular order — so the elastic-net step and the top-k
// scan cost O(nnz), not O(vocabulary), and NNZ is len(supp).
//
// Every fold whose result depends on its order (the margin, the norms,
// the cosine, Range and the snapshots) sweeps the dense values in
// ascending index order, so they are identical across runs. Only
// per-coordinate updates (Shrink) and order-free selections (AppendTopK,
// whose order is total) walk the support.
//
// Concurrency: mutation (Set/Add/AddSparse/Shrink) is single-threaded.
// Reads (Margin, At, the norms) may run from many goroutines at once —
// the pipeline's score workers do — but never concurrently with a
// mutation.
type Weights struct {
	v    []float64
	supp []int32
}

// NewWeights returns an empty weight vector.
func NewWeights() *Weights { return &Weights{} }

// Clone returns a deep copy of w.
func (w *Weights) Clone() *Weights {
	return &Weights{v: slices.Clone(w.v), supp: slices.Clone(w.supp)}
}

// At returns the weight of feature i (0 outside the stored range).
func (w *Weights) At(i int32) float64 {
	if uint(i) < uint(len(w.v)) {
		return w.v[i]
	}
	return 0
}

// Set assigns the weight of feature i. Setting 0 takes the feature out of
// the support, so the model stays sparse (the basis of in-training
// feature selection).
func (w *Weights) Set(i int32, v float64) { w.set(i, v) }

// Add accumulates v into feature i.
func (w *Weights) Add(i int32, v float64) { w.set(i, w.At(i)+v) }

// set is the body of Set and Add. It is kept out of line so that both
// stay within the inlining budget; AddSparse, the training hot path,
// handles the common case inline and calls set for the rest.
// It grows the vector, and moves i into or out of the support when its
// weight becomes nonzero or zero. Leaving (an exact cancellation, or
// Set(i, 0)) is rare, so it scans the support.
func (w *Weights) set(i int32, v float64) {
	if int(i) >= len(w.v) {
		w.v = append(w.v, make([]float64, int(i)+1-len(w.v))...)
	}
	switch old := w.v[i]; {
	case v == 0:
		if old != 0 {
			k := slices.Index(w.supp, i)
			last := len(w.supp) - 1
			w.supp[k] = w.supp[last]
			w.supp = w.supp[:last]
		}
		v = 0 // store +0, never −0
	case old == 0:
		w.supp = append(w.supp, i)
	}
	w.v[i] = v
}

// NNZ reports the number of features with non-zero weight.
func (w *Weights) NNZ() int { return len(w.supp) }

// AddSparse accumulates a*x into w, computing each entry as Add does.
// A weight that is nonzero before and after stays in the support, so it
// is written in place; every other case goes through set.
func (w *Weights) AddSparse(a float64, x Sparse) {
	if a == 0 {
		return
	}
	for k, i := range x.idx {
		nv := w.At(i) + a*x.val[k]
		if uint(i) < uint(len(w.v)) && w.v[i] != 0 && nv != 0 {
			w.v[i] = nv
			continue
		}
		w.set(i, nv)
	}
}

// Shrink applies the elastic-net proximal step
// w_i <- sign(w_i) * max(0, |w_i|*decay - thresh) to every weight: an L2
// decay followed by an L1 soft threshold. Weights that reach zero leave
// the support. Zero weights stay zero, so the step walks the support
// only; coordinates are independent, so the walk order changes no bit.
func (w *Weights) Shrink(decay, thresh float64) {
	if decay == 1 && thresh == 0 {
		return
	}
	d := w.v
	kept := w.supp[:0]
	for _, i := range w.supp {
		v := d[i]
		nv := math.Abs(v)*decay - thresh
		if nv <= 0 {
			d[i] = 0
			continue
		}
		if v < 0 {
			nv = -nv
		}
		d[i] = nv
		kept = append(kept, i)
	}
	w.supp = kept
}

// Margin is the one margin kernel: it returns w·x + bias, folding the
// products w_i·x_i in ascending index order. Training's hinge test,
// scoring and attribution all get their margin from this one fold, so
// they agree bit for bit. Because x's indices are sorted, the fold stops
// at the first index past the stored range (every later product is zero
// too).
//
// When visit is non-nil, a second pass over the same products reports
// every nonzero one to it, in fold order. (Keeping the callback check out
// of the fold keeps scoring's loop tight.) The products it does not
// receive are exact zeros, and the running sum can never be −0 (it starts
// at +0 and cancellation yields +0 under round-to-nearest), so folding the
// visited products in call order and adding bias reconstructs the
// returned margin bit for bit.
func (w *Weights) Margin(x Packed, bias float64, visit func(i int32, c float64)) float64 {
	d := w.v
	n := int32(len(d))
	idx := x.Idx
	val := x.Val
	var sum float64
	for k, i := range idx {
		if i >= n {
			break
		}
		sum += d[i] * val[k]
	}
	if visit != nil {
		for k, i := range idx {
			if i >= n {
				break
			}
			if c := d[i] * val[k]; c != 0 {
				visit(i, c)
			}
		}
	}
	return sum + bias
}

// L2 returns the Euclidean norm of the weight vector.
func (w *Weights) L2() float64 {
	var sum float64
	for _, v := range w.v {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// L1 returns the L1 norm of the weight vector.
func (w *Weights) L1() float64 {
	var sum float64
	for _, v := range w.v {
		sum += math.Abs(v)
	}
	return sum
}

// Cosine returns the cosine similarity between two weight vectors, and 0
// when either is a zero vector. The dot product — Mod-C's trigger angle —
// folds in ascending index order over the shorter vector's range.
func (w *Weights) Cosine(o *Weights) float64 {
	nw, no := w.L2(), o.L2()
	if nw == 0 || no == 0 {
		return 0
	}
	a, b := w.v, o.v
	if len(b) < len(a) {
		a, b = b, a
	}
	b = b[:len(a)]
	var dot float64
	for i, u := range a {
		dot += u * b[i]
	}
	return dot / (nw * no)
}

// Range calls f for every nonzero (index, weight) pair in ascending index
// order.
func (w *Weights) Range(f func(i int32, v float64)) {
	for i, v := range w.v {
		if v != 0 {
			f(int32(i), v)
		}
	}
}

// ToSparse snapshots the weight vector as an immutable sparse vector.
func (w *Weights) ToSparse() Sparse {
	idx := make([]int32, 0, len(w.supp))
	val := make([]float64, 0, len(w.supp))
	for i, v := range w.v {
		if v != 0 {
			idx = append(idx, int32(i))
			val = append(val, v)
		}
	}
	return Sparse{idx: idx, val: val}
}

// WeightedFeature pairs a feature index with a weight for ranking reports.
type WeightedFeature struct {
	Index  int32
	Weight float64
}

// TopK returns the k features with largest absolute weight, ordered by
// decreasing |weight| with index as tiebreaker for determinism.
func (w *Weights) TopK(k int) []WeightedFeature { return w.AppendTopK(nil, k) }

// AppendTopK appends w's top k features, in TopK's order, to dst and
// returns the extended slice. The scan offers the support and keeps only
// the k best features seen so far, so it costs O(nnz·log k), and
// appending into a buffer with room for them allocates nothing. The
// order is total, so the result does not depend on the offer order.
func (w *Weights) AppendTopK(dst []WeightedFeature, k int) []WeightedFeature {
	s := selection{dst: dst, base: len(dst), k: k}
	for _, i := range w.supp {
		s.offer(WeightedFeature{Index: i, Weight: w.v[i]})
	}
	return s.sorted()
}

// selection appends to dst the k best features offered to it under
// absDescByIndex. While offers arrive, dst[base:] is a heap whose root
// is the worst feature kept, so a feature that cannot enter costs one
// comparison.
type selection struct {
	dst     []WeightedFeature
	base, k int
}

// offer considers f for the selection.
func (s *selection) offer(f WeightedFeature) {
	h := s.dst[s.base:]
	if len(h) < s.k {
		s.dst = append(s.dst, f)
		h = s.dst[s.base:]
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if absDescByIndex(h[p], h[i]) > 0 {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return
	}
	if len(h) == 0 || absDescByIndex(f, h[0]) > 0 {
		return
	}
	h[0] = f
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && absDescByIndex(h[r], h[c]) > 0 {
			c = r
		}
		if absDescByIndex(h[c], h[i]) < 0 {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sorted returns dst with the selected features appended, best first.
func (s *selection) sorted() []WeightedFeature {
	slices.SortFunc(s.dst[s.base:], absDescByIndex)
	return s.dst
}

// absDescByIndex orders WeightedFeatures by decreasing |weight| with
// index as tiebreaker — a total order, so the result is deterministic
// under any (even unstable) sort.
func absDescByIndex(a, b WeightedFeature) int {
	av, bv := math.Abs(a.Weight), math.Abs(b.Weight)
	if av != bv {
		if av > bv {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Index, b.Index)
}
