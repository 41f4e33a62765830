// Package vector provides the sparse linear algebra used by the online
// learners and ranking models: immutable sorted sparse vectors for document
// feature representations, and a mutable dense vector for model weights
// whose feature space grows during extraction.
package vector

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Sparse is an immutable sparse vector stored as parallel slices sorted by
// feature index. It is the representation of a featurized document.
type Sparse struct {
	idx []int32
	val []float64
}

// NewSparse builds a Sparse vector from unordered (index, value) pairs.
// Duplicate indices are summed; zero values are dropped.
func NewSparse(idx []int32, val []float64) Sparse {
	if len(idx) != len(val) {
		//lint:allow hotalloc cold panic path guarding a caller bug, never taken while scoring
		panic(fmt.Sprintf("vector: NewSparse length mismatch: %d indices, %d values", len(idx), len(val)))
	}
	type pair struct {
		i int32
		v float64
	}
	pairs := make([]pair, 0, len(idx))
	for k := range idx {
		pairs = append(pairs, pair{idx[k], val[k]})
	}
	// Total order (index, then value) so duplicate indices sum in a
	// deterministic order regardless of the sort's stability.
	slices.SortFunc(pairs, func(a, b pair) int {
		if c := cmp.Compare(a.i, b.i); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	outIdx := make([]int32, 0, len(pairs))
	outVal := make([]float64, 0, len(pairs))
	for _, p := range pairs {
		n := len(outIdx)
		if n > 0 && outIdx[n-1] == p.i {
			outVal[n-1] += p.v
			continue
		}
		outIdx = append(outIdx, p.i)
		outVal = append(outVal, p.v)
	}
	// Drop exact zeros (possibly created by cancellation).
	w := 0
	for k := range outIdx {
		if outVal[k] != 0 {
			outIdx[w], outVal[w] = outIdx[k], outVal[k]
			w++
		}
	}
	return Sparse{idx: outIdx[:w], val: outVal[:w]}
}

// FromCounts builds a Sparse vector from a feature-count map.
func FromCounts(counts map[int32]float64) Sparse {
	idx := make([]int32, 0, len(counts))
	//lint:allow detrand collection order is erased by the sort below
	for i := range counts {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	val := make([]float64, 0, len(idx))
	outIdx := make([]int32, 0, len(idx))
	for _, i := range idx {
		if v := counts[i]; v != 0 {
			outIdx = append(outIdx, i)
			val = append(val, v)
		}
	}
	return Sparse{idx: outIdx, val: val}
}

// Binary returns the unit-norm presence vector over idx, which must be
// strictly increasing: every value is 1/√n for n = len(idx). That is
// bitwise FromCounts over the same ids at count 1, then Normalize, since
// a sum of n ones is exact. Binary takes ownership of idx.
func Binary(idx []int32) Sparse {
	val := make([]float64, len(idx))
	v := 1 / math.Sqrt(float64(len(idx)))
	for k := range val {
		val[k] = v
	}
	return Sparse{idx: idx, val: val}
}

// Unit returns the vector over idx with the values val scaled in place
// to unit L2 norm: the squares are summed in idx order and every value
// multiplied by 1/√sum, which is bitwise FromCounts over the same pairs,
// then Normalize. idx must be strictly increasing, and val nonzero with
// a finite sum of squares; Unit takes ownership of both.
func Unit(idx []int32, val []float64) Sparse {
	var sum float64
	for _, v := range val {
		sum += v * v
	}
	if sum != 0 {
		a := 1 / math.Sqrt(sum)
		for k := range val {
			val[k] *= a
		}
	}
	return Sparse{idx: idx, val: val}
}

// NNZ reports the number of stored (non-zero) entries.
func (s Sparse) NNZ() int { return len(s.idx) }

// MaxIndex returns the largest feature index, or -1 for an empty vector.
func (s Sparse) MaxIndex() int32 {
	if len(s.idx) == 0 {
		return -1
	}
	return s.idx[len(s.idx)-1]
}

// At returns the value at feature index i (0 when absent). The lower
// bound is searched with an open-coded loop (same semantics as
// sort.Search) so the probe stays closure- and allocation-free.
func (s Sparse) At(i int32) float64 {
	lo, hi := 0, len(s.idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.idx[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.idx) && s.idx[lo] == i {
		return s.val[lo]
	}
	return 0
}

// Range calls f for every stored (index, value) pair in index order.
func (s Sparse) Range(f func(i int32, v float64)) {
	for k := range s.idx {
		f(s.idx[k], s.val[k])
	}
}

// L1 returns the L1 norm.
func (s Sparse) L1() float64 {
	var sum float64
	for _, v := range s.val {
		sum += math.Abs(v)
	}
	return sum
}

// L2 returns the Euclidean norm.
func (s Sparse) L2() float64 {
	var sum float64
	for _, v := range s.val {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Scale returns a copy of s with every value multiplied by a.
func (s Sparse) Scale(a float64) Sparse {
	if a == 0 {
		return Sparse{}
	}
	idx := make([]int32, len(s.idx))
	val := make([]float64, len(s.val))
	copy(idx, s.idx)
	for k, v := range s.val {
		val[k] = v * a
	}
	return Sparse{idx: idx, val: val}
}

// Dot returns the inner product of two sparse vectors.
func (s Sparse) Dot(t Sparse) float64 {
	var sum float64
	i, j := 0, 0
	for i < len(s.idx) && j < len(t.idx) {
		switch {
		case s.idx[i] < t.idx[j]:
			i++
		case s.idx[i] > t.idx[j]:
			j++
		default:
			sum += s.val[i] * t.val[j]
			i++
			j++
		}
	}
	return sum
}

// Cosine returns the cosine similarity of two sparse vectors, and 0 when
// either is a zero vector.
func (s Sparse) Cosine(t Sparse) float64 {
	ns, nt := s.L2(), t.L2()
	if ns == 0 || nt == 0 {
		return 0
	}
	return s.Dot(t) / (ns * nt)
}

// String renders the vector as {i:v, ...} for debugging.
func (s Sparse) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for k := range s.idx {
		if k > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strconv.FormatInt(int64(s.idx[k]), 10))
		b.WriteByte(':')
		b.WriteString(strconv.FormatFloat(s.val[k], 'g', -1, 64))
	}
	b.WriteByte('}')
	return b.String()
}

// Normalize returns s scaled to unit L2 norm (zero vectors are returned
// unchanged).
func (s Sparse) Normalize() Sparse {
	n := s.L2()
	if n == 0 {
		return s
	}
	return s.Scale(1 / n)
}

// Equal reports whether two sparse vectors have identical stored entries.
func (s Sparse) Equal(t Sparse) bool {
	if len(s.idx) != len(t.idx) {
		return false
	}
	for k := range s.idx {
		if s.idx[k] != t.idx[k] || s.val[k] != t.val[k] {
			return false
		}
	}
	return true
}
