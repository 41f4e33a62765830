package update

import (
	"cmp"
	"math"
	"slices"

	"adaptiverank/internal/vector"
)

// Footrule computes the weighted generalized Spearman's Footrule of the
// paper's footnote 7 between two ranked, weighted feature lists:
//
//	F(A,B) = sum_i w_i * | sum_{j: rankA(j) <= rankA(i)} w_j
//	                     - sum_{j: rankB(j) <= rankB(i)} w_j |
//
// Lists are ranked by decreasing |weight|; the per-feature weight w_i is
// the mean absolute weight of the feature across the two lists (0 for a
// list where it is absent). A feature absent from a list is treated as
// ranked past the end of that list, so its prefix sum there is the list's
// total weight — heavily weighted features entering or leaving the top-K
// therefore move the metric most, as intended.
// Both the per-feature weights and the prefix positions are normalized by
// the lists' total weight, so the distance lies in [0,1] and the threshold
// tau is scale-free (the raw SVM weight magnitudes drift as training
// progresses, which would otherwise change what a fixed tau means).
// Each list names a feature at most once, as Weights.TopK lists do.
func Footrule(a, b []vector.WeightedFeature) float64 {
	var s footrule
	return s.distance(a, b)
}

// footrule evaluates Footrule over two id-sorted prefix tables that it
// owns and reuses, so a warm evaluator allocates nothing.
type footrule struct{ a, b []prefixEntry }

// prefixEntry is one feature of a ranked list: its id, half its |weight|
// (its share of the feature's mean weight across the two lists), and the
// cumulative |weight| of the list up to and including it.
type prefixEntry struct {
	id        int32
	half, cum float64
}

func (s *footrule) distance(a, b []vector.WeightedFeature) float64 {
	ta, totalA := prefixTable(s.a[:0], a)
	tb, totalB := prefixTable(s.b[:0], b)
	s.a, s.b = ta, tb
	if totalA == 0 && totalB == 0 {
		return 0
	}

	var wTotal float64
	for _, f := range a {
		wTotal += math.Abs(f.Weight) / 2
	}
	for _, f := range b {
		wTotal += math.Abs(f.Weight) / 2
	}
	if wTotal == 0 {
		return 0
	}

	// Merge the tables in ascending id order: the distance feeds Top-K's
	// trigger comparison against tau, so the fold order is fixed.
	var d float64
	for i, j := 0, 0; i < len(ta) || j < len(tb); {
		inA := i < len(ta) && (j == len(tb) || ta[i].id <= tb[j].id)
		inB := j < len(tb) && (i == len(ta) || tb[j].id <= ta[i].id)
		var w float64
		pa, pb := 1.0, 1.0
		if inA {
			w += ta[i].half
			if totalA > 0 {
				pa = ta[i].cum / totalA
			}
			i++
		}
		if inB {
			w += tb[j].half
			if totalB > 0 {
				pb = tb[j].cum / totalB
			}
			j++
		}
		d += (w / wTotal) * math.Abs(pa-pb)
	}
	return d
}

// prefixTable appends list's prefix entries to tab, sorted by id, and
// returns them with the list's total weight. Cumulative weights follow
// the list's own order (lists arrive sorted by decreasing |weight| from
// vector.Weights.TopK).
func prefixTable(tab []prefixEntry, list []vector.WeightedFeature) ([]prefixEntry, float64) {
	var cum float64
	for _, f := range list {
		cum += math.Abs(f.Weight)
		tab = append(tab, prefixEntry{id: f.Index, half: math.Abs(f.Weight) / 2, cum: cum})
	}
	slices.SortFunc(tab, func(x, y prefixEntry) int { return cmp.Compare(x.id, y.id) })
	return tab, cum
}
