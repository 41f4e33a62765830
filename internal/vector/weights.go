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
// once, in no particular order — so settling and the top-k scan cost
// O(nnz), not O(vocabulary), and NNZ is len(supp).
//
// A training loop applies the proximal elastic-net step (Prox) after
// every gradient step. Prox is lazy: v holds u, with w = s·u, so the L2
// decay multiplies the one scale s, and the L1 thresholds add up into
// one penalty owed, kept in units of u. The weight in support slot k
// has paid paid[k] of that penalty and pays the rest,
// |u_i| ← max(0, |u_i| − (owed − paid[k])), when a step touches it
// (CatchUp, AddSparse), so a step costs O(features touched). The clips
// compose — max(0, max(0, a−b) − c) = max(0, a−b−c) for b, c ≥ 0 — so
// this is the eager step exactly in real arithmetic; only rounding
// differs. Settle pays every debt, folds s into the values and drops
// clipped weights, leaving plain weights in v. Where a settle happens
// changes the rounding of every later step, so the owner settles at
// points its training stream fixes; readers never do. Every reader
// returns the values a Settle would store without storing them; all but
// At read them from a settled copy, so scoring a model with a pending
// step allocates (the pipeline settles before every rank pass).
//
// Every fold whose result depends on its order (the margin, the norms,
// the cosine, Range and the snapshots) sweeps the values in ascending
// index order, so they are identical across runs. Only per-coordinate
// updates (Settle) and order-free selections (AppendTopK, whose order is
// total) walk the support.
//
// Concurrency: mutation (Set/Add/AddSparse/CatchUp/Prox/Settle) is
// single-threaded. Reads (Margin, At, the norms) may run from many
// goroutines at once — the pipeline's score workers do — but never
// concurrently with a mutation.
type Weights struct {
	v    []float64
	supp []int32
	// pos[i] is 1 + the slot of i in supp, 0 outside the support, so a
	// weight leaves the support in O(1). The first removal or Prox
	// builds it; Clone does not copy it.
	pos []int32

	// The pending elastic-net step, if lazy: the scale s, the penalty
	// owed and, slot by slot with supp, how much of it each weight has
	// paid.
	lazy  bool
	scale float64
	owed  float64
	paid  []float64
}

// minScale bounds the lazy scale from below: a Prox that would take it
// lower settles the vector first, so the scale never underflows.
// Pegasos' scale falls like 1/t, so training never gets near it.
const minScale = 0x1p-64

// NewWeights returns an empty weight vector.
func NewWeights() *Weights { return &Weights{} }

// Clone returns a deep copy of w in settled form: the values and support
// a Settle would leave, without the position index or a pending step.
func (w *Weights) Clone() *Weights {
	if !w.lazy {
		return &Weights{v: slices.Clone(w.v), supp: slices.Clone(w.supp)}
	}
	c := &Weights{v: make([]float64, len(w.v)), supp: make([]int32, 0, len(w.supp))}
	for k, i := range w.supp {
		if v := w.settled(k, w.v[i]); v != 0 {
			c.v[i] = v
			c.supp = append(c.supp, i)
		}
	}
	return c
}

// settled returns the weight u in support slot k of a vector with a
// pending step as Settle would store it: its debt paid, times the scale.
func (w *Weights) settled(k int, u float64) float64 {
	return w.scale * clip(u, w.owed-w.paid[k])
}

// clip pays the penalty p from u: sign(u)·max(0, |u| − p), never −0.
func clip(u, p float64) float64 {
	if a := math.Abs(u) - p; a > 0 {
		return math.Copysign(a, u)
	}
	return 0
}

// values returns the dense values a Settle would store: w.v itself when
// w is settled, a settled copy otherwise.
func (w *Weights) values() []float64 {
	if !w.lazy {
		return w.v
	}
	return w.Clone().v
}

// At returns the weight of feature i (0 outside the stored range), with
// a step pending the value a Settle would store.
func (w *Weights) At(i int32) float64 {
	if uint(i) >= uint(len(w.v)) {
		return 0
	}
	u := w.v[i]
	if !w.lazy || u == 0 {
		return u
	}
	return w.settled(int(w.pos[i]-1), u)
}

// Set assigns the weight of feature i, settling a pending step first.
// Setting 0 takes the feature out of the support, so the model stays
// sparse (the basis of in-training feature selection).
func (w *Weights) Set(i int32, v float64) {
	w.Settle()
	w.set(i, v)
}

// Add accumulates v into feature i, settling a pending step first.
func (w *Weights) Add(i int32, v float64) { w.Set(i, w.At(i)+v) }

// set stores v (in units of u while a step is pending) as feature i's
// value, growing the vector, and moves i into or out of the support when
// its value becomes nonzero or zero. A weight that enters during a
// pending step owes nothing yet.
func (w *Weights) set(i int32, v float64) {
	if n := int(i) + 1; n > len(w.v) {
		w.grow(n)
	}
	switch old := w.v[i]; {
	case v == 0:
		if old != 0 {
			w.remove(i)
		}
		v = 0 // store +0, never −0
	case old == 0:
		w.supp = append(w.supp, i)
		if w.pos != nil {
			w.pos[i] = int32(len(w.supp))
		}
		if w.lazy {
			w.paid = append(w.paid, w.owed)
		}
	}
	w.v[i] = v
}

// grow extends the vector, and the position index with it, to n
// entries.
func (w *Weights) grow(n int) {
	w.v = append(w.v, make([]float64, n-len(w.v))...)
	if w.pos != nil {
		w.pos = append(w.pos, make([]int32, n-len(w.pos))...)
	}
}

// remove takes i out of the support in O(1): the last slot fills its
// slot. The caller zeroes v[i].
func (w *Weights) remove(i int32) {
	if w.pos == nil {
		w.index()
	}
	k, last := w.pos[i]-1, len(w.supp)-1
	j := w.supp[last]
	w.supp[k], w.pos[j] = j, k+1
	w.supp, w.pos[i] = w.supp[:last], 0
	if w.lazy {
		w.paid[k] = w.paid[last]
		w.paid = w.paid[:last]
	}
}

// index builds the position index from the support.
func (w *Weights) index() {
	w.pos = make([]int32, len(w.v))
	for k, i := range w.supp {
		w.pos[i] = int32(k) + 1
	}
}

// NNZ reports the number of features with non-zero weight.
func (w *Weights) NNZ() int {
	if w.lazy {
		return w.Clone().NNZ()
	}
	return len(w.supp)
}

// AddSparse accumulates a*x into w. Each weight x touches first pays
// what it still owes (after CatchUp over x, nothing), then takes a*x_i
// (a/s*x_i in units of u while a step is pending). A weight that is
// nonzero before and after stays in the support, so it is written in
// place; every other case goes through set.
func (w *Weights) AddSparse(a float64, x Sparse) {
	if a == 0 {
		return
	}
	if w.lazy {
		a /= w.scale
	}
	for k, i := range x.idx {
		var u float64
		if uint(i) < uint(len(w.v)) {
			if u = w.v[i]; w.lazy && u != 0 && w.paid[w.pos[i]-1] != w.owed {
				u = w.pay(i)
			}
		}
		nu := u + a*x.val[k]
		if u != 0 && nu != 0 {
			w.v[i] = nu
			continue
		}
		w.set(i, nu)
	}
}

// pay settles what the nonzero weight i owes during a pending step in
// place, dropping it from the support if that clips it, and returns its
// value in units of u.
func (w *Weights) pay(i int32) float64 {
	u, k := w.v[i], w.pos[i]-1
	if u = clip(u, w.owed-w.paid[k]); u == 0 {
		w.remove(i)
	} else {
		w.paid[k] = w.owed
	}
	w.v[i] = u
	return u
}

// CatchUp is the margin of a training step: it pays what every weight x
// touches owes and returns w·x + bias, bitwise what Margin returns on
// the same vector. Folding the payments into the margin's pass over x
// is what keeps a lazy step at O(features touched).
func (w *Weights) CatchUp(x Packed, bias float64) float64 {
	if !w.lazy {
		return w.Margin(x, bias, nil)
	}
	d := w.v
	n := int32(len(d))
	var sum float64
	for k, i := range x.Idx {
		if i >= n {
			break
		}
		u := d[i]
		if u != 0 { // pay's body, inlined: this loop is the training hot path
			s := w.pos[i] - 1
			if u = clip(u, w.owed-w.paid[s]); u == 0 {
				w.remove(i)
			} else {
				w.paid[s] = w.owed
			}
			d[i] = u
		}
		sum += w.scale * u * x.Val[k]
	}
	return sum + bias
}

// Prox applies the elastic-net proximal step
// w_i <- sign(w_i) * max(0, |w_i|*decay - thresh) to every weight, for
// decay in [0, 1] and thresh >= 0: an L2 decay followed by an L1 soft
// threshold. It costs O(1): the decay scales s, and thresh/s adds to
// the penalty every weight owes. A decay of 0 zeroes every weight.
func (w *Weights) Prox(decay, thresh float64) {
	switch {
	case decay == 1 && thresh == 0:
		return
	case decay == 0:
		for _, i := range w.supp {
			w.v[i] = 0
			if w.pos != nil {
				w.pos[i] = 0
			}
		}
		w.supp, w.lazy, w.owed = w.supp[:0], false, 0
		return
	case w.lazy && w.scale*decay < minScale:
		w.Settle()
	}
	if !w.lazy {
		if w.pos == nil {
			w.index()
		}
		w.paid = append(w.paid[:0], make([]float64, len(w.supp))...)
		w.lazy, w.scale = true, 1
	}
	w.scale *= decay
	w.owed += thresh / w.scale
}

// Settle pays every weight's debt, folds the scale into the values and
// drops clipped weights from the support, so v holds plain weights
// again. It walks the support once; on a settled vector it does nothing.
func (w *Weights) Settle() {
	if !w.lazy {
		return
	}
	kept := w.supp[:0]
	for k, i := range w.supp {
		if v := w.settled(k, w.v[i]); v != 0 {
			w.v[i] = v
			kept = append(kept, i)
			w.pos[i] = int32(len(kept))
		} else {
			w.v[i], w.pos[i] = 0, 0
		}
	}
	w.supp, w.lazy, w.owed = kept, false, 0
}

// Margin is the one margin kernel: it returns w·x + bias, folding the
// products w_i·x_i in ascending index order. Scoring and attribution get
// their margin from this one fold, and training's hinge test (CatchUp)
// folds the same products, so they agree bit for bit. Because x's
// indices are sorted, the fold stops at the first index past the stored
// range (every later product is zero too). With a step pending it folds
// over a settled copy.
//
// When visit is non-nil, a second pass over the same products reports
// every nonzero one to it, in fold order. (Keeping the callback check out
// of the fold keeps scoring's loop tight.) The products it does not
// receive are exact zeros, and the running sum can never be −0 (it starts
// at +0 and cancellation yields +0 under round-to-nearest), so folding the
// visited products in call order and adding bias reconstructs the
// returned margin bit for bit.
func (w *Weights) Margin(x Packed, bias float64, visit func(i int32, c float64)) float64 {
	if w.lazy {
		return w.Clone().Margin(x, bias, visit)
	}
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
	for _, v := range w.values() {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// L1 returns the L1 norm of the weight vector.
func (w *Weights) L1() float64 {
	var sum float64
	for _, v := range w.values() {
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
	a, b := w.values(), o.values()
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
	for i, v := range w.values() {
		if v != 0 {
			f(int32(i), v)
		}
	}
}

// ToSparse snapshots the weight vector as an immutable sparse vector.
func (w *Weights) ToSparse() Sparse {
	idx := make([]int32, 0, len(w.supp))
	val := make([]float64, 0, len(w.supp))
	for i, v := range w.values() {
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
	d := w.values()
	for _, i := range w.supp {
		if v := d[i]; v != 0 {
			s.offer(WeightedFeature{Index: i, Weight: v})
		}
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
