package vector

// Model-introspection primitives for the explain substrate
// (internal/obs/explain): snapshot-to-snapshot drift statistics. (Exact
// per-feature score attribution is Margin's visit callback.) Everything
// here folds in ascending index order — these numbers end up in explain
// artifacts that the byte-identity tests compare across runs, so they
// are held to the same determinism bar as the detector statistics.

import "math"

// DriftStats summarizes how a weight vector moved between two training
// snapshots: norms of the difference vector, directional similarity,
// and support churn. All folds run in ascending index order.
type DriftStats struct {
	// L1 and L2 are the norms of (cur − prev).
	L1 float64 `json:"l1"`
	L2 float64 `json:"l2"`
	// Cosine is the cosine similarity between prev and cur (0 when
	// either is the zero vector) — the same statistic Mod-C thresholds.
	Cosine float64 `json:"cosine"`
	// Entered and Left count features present in cur but not prev, and
	// vice versa: the support churn of the step.
	Entered int `json:"entered"`
	Left    int `json:"left"`
}

// Drift computes the movement from prev to cur.
func Drift(prev, cur *Weights) DriftStats {
	var l1, l2 float64
	var entered, left int
	p, c := prev.values(), cur.values()
	for i := range max(len(p), len(c)) {
		pv, cv := at(p, i), at(c, i)
		if cv != 0 && pv == 0 {
			entered++
		}
		if pv != 0 && cv == 0 {
			left++
		}
		d := cv - pv
		l1 += math.Abs(d)
		l2 += d * d
	}
	return DriftStats{
		L1:      l1,
		L2:      math.Sqrt(l2),
		Cosine:  prev.Cosine(cur),
		Entered: entered,
		Left:    left,
	}
}

// TopMovers returns the k features whose weight changed most between
// prev and cur, ordered by decreasing |Δweight| with index as
// tiebreaker; Weight carries the signed delta cur−prev.
func TopMovers(prev, cur *Weights, k int) []WeightedFeature {
	s := selection{k: k}
	p, c := prev.values(), cur.values()
	for i := range max(len(p), len(c)) {
		if d := at(c, i) - at(p, i); d != 0 {
			s.offer(WeightedFeature{Index: int32(i), Weight: d})
		}
	}
	return s.sorted()
}

// at returns v[i], or 0 past the end.
func at(v []float64, i int) float64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}
