package vector

// Packed is the scoring hot path's view of a sparse vector: parallel
// index/value slices sorted by strictly increasing feature index, exposed
// directly so the margin kernel (Weights.Margin) compiles down to a
// straight slice walk. Batch scorers keep slices of Packed views in
// pooled, caller-owned buffers.
//
// A Packed obtained from Sparse.Packed shares the immutable Sparse
// storage and must be treated as read-only: mutating it would corrupt
// every other holder of the same Sparse, such as the featurizer cache.
type Packed struct {
	Idx []int32
	Val []float64
}

// Packed returns a zero-copy read-only view of s. The view shares s's
// backing arrays: callers must not modify Idx or Val through it.
func (s Sparse) Packed() Packed { return Packed{Idx: s.idx, Val: s.val} }
