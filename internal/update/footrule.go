package update

import (
	"cmp"
	"math"
	"slices"
	"strconv"

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
// Each list names a feature at most once, as Weights.TopK lists do, by
// its feature id (non-negative).
func Footrule(a, b []vector.WeightedFeature) float64 {
	var s footrule
	return s.distance(a, b)
}

// footrule evaluates Footrule from a reference list, kept as an id-sorted
// prefix table built once per reference (setRef), to the lists handed to
// to. It keeps the last such list's ids in ascending order, so a call
// drops the ids that left and inserts only those that entered, and it
// reads each id's rank through a table indexed by id. A warm evaluator
// allocates nothing.
type footrule struct {
	ref []prefixEntry // the reference list's prefix table, by id
	// refTotal is the reference list's total |weight|, refHalves the sum
	// of its halves, folded in list order.
	refTotal, refHalves float64

	ids     []int32   // the last list's ids, ascending
	rank    []int32   // rank[id] is 1 + id's rank in the last list, 0 if absent
	cum     []float64 // the last list's cumulative |weight|, by rank
	entered []int32   // scratch: the ids that entered the last list
}

// prefixEntry is one feature of a ranked list: its id, its 0-based rank,
// half its |weight| (its share of the feature's mean weight across the
// two lists), and the cumulative |weight| of the list up to and
// including it.
type prefixEntry struct {
	id, rank  int32
	half, cum float64
}

func (s *footrule) distance(a, b []vector.WeightedFeature) float64 {
	s.setRef(a)
	return s.to(b)
}

// setRef makes a the reference list.
func (s *footrule) setRef(a []vector.WeightedFeature) {
	s.ref = s.ref[:0]
	var cum, halves float64
	for r, f := range a {
		half := math.Abs(f.Weight) / 2
		cum += math.Abs(f.Weight)
		halves += half
		s.ref = append(s.ref, prefixEntry{id: f.Index, rank: int32(r), half: half, cum: cum})
	}
	slices.SortFunc(s.ref, func(x, y prefixEntry) int { return cmp.Compare(x.id, y.id) })
	s.refTotal, s.refHalves = cum, halves
}

// to returns the footrule between the reference list and b.
func (s *footrule) to(b []vector.WeightedFeature) float64 {
	totalB := s.track(b)
	totalA := s.refTotal
	if totalA == 0 && totalB == 0 {
		return 0
	}
	// The reference list's halves first, then b's, in list order.
	wTotal := s.refHalves
	for _, f := range b {
		wTotal += math.Abs(f.Weight) / 2
	}
	if wTotal == 0 {
		return 0
	}

	// Merge the lists in ascending id order: the distance feeds Top-K's
	// trigger comparison against tau, so the fold order is fixed.
	ta, tb := s.ref, s.ids
	var d float64
	for i, j := 0, 0; i < len(ta) || j < len(tb); {
		inA := i < len(ta) && (j == len(tb) || ta[i].id <= tb[j])
		inB := j < len(tb) && (i == len(ta) || tb[j] <= ta[i].id)
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
			r := s.rank[tb[j]] - 1
			w += math.Abs(b[r].Weight) / 2
			if totalB > 0 {
				pb = s.cum[r] / totalB
			}
			j++
		}
		d += (w / wTotal) * math.Abs(pa-pb)
	}
	return d
}

// track makes b the last list: it records b's ranks and cumulative
// weights, patches the ascending id list, and returns b's total |weight|.
func (s *footrule) track(b []vector.WeightedFeature) float64 {
	s.entered, s.cum = s.entered[:0], s.cum[:0]
	var cum float64
	for _, f := range b {
		if n := int(f.Index) + 1; n > len(s.rank) {
			s.rank = append(s.rank, make([]int32, n-len(s.rank))...)
		}
		if s.rank[f.Index] == 0 {
			s.entered = append(s.entered, f.Index)
		}
		cum += math.Abs(f.Weight)
		s.cum = append(s.cum, cum)
	}
	for _, id := range s.ids {
		s.rank[id] = 0
	}
	for r, f := range b {
		s.rank[f.Index] = int32(r) + 1
	}
	kept := s.ids[:0]
	for _, id := range s.ids {
		if s.rank[id] != 0 {
			kept = append(kept, id)
		}
	}
	for _, id := range s.entered {
		i, _ := slices.BinarySearch(kept, id)
		kept = slices.Insert(kept, i, id)
	}
	s.ids = kept
	return cum
}

// topMoves is how many displaced features the decision evidence names.
const topMoves = 5

// move is one feature's displacement between the reference list and the
// last list: its ranks in each (-1 where absent) and the rank delta that
// orders the evidence, where an absence counts as a full-list move.
type move struct {
	id, from, to, delta int
}

// evidence compares the reference list with the last list handed to to:
// how many features entered and left the list since the reference, and
// the topMoves most displaced features as an "index:refRank->curRank"
// list (0-based ranks, -1 for absent), ordered by rank delta, descending,
// then by id. It merges the two id-sorted tables, as to does, and keeps
// the leading moves by bounded insertion: the merge meets ids in
// ascending order, so a move goes after every kept move whose delta is
// at least its own.
func (s *footrule) evidence() (entered, left int, displaced string) {
	full := max(len(s.ref), len(s.ids))
	var top [topMoves]move
	n := 0
	ta, tb := s.ref, s.ids
	for i, j := 0, 0; i < len(ta) || j < len(tb); {
		inA := i < len(ta) && (j == len(tb) || ta[i].id <= tb[j])
		inB := j < len(tb) && (i == len(ta) || tb[j] <= ta[i].id)
		m := move{from: -1, to: -1, delta: full}
		if inA {
			m.id, m.from = int(ta[i].id), int(ta[i].rank)
			i++
		}
		if inB {
			m.id, m.to = int(tb[j]), int(s.rank[tb[j]]-1)
			j++
		}
		switch {
		case !inA:
			entered++
		case !inB:
			left++
		case m.from == m.to:
			continue
		default:
			m.delta = max(m.from-m.to, m.to-m.from)
		}
		k := n
		for k > 0 && top[k-1].delta < m.delta {
			k--
		}
		if k == topMoves {
			continue
		}
		n = min(n+1, topMoves)
		copy(top[k+1:n], top[k:])
		top[k] = m
	}
	var buf [128]byte
	b := buf[:0]
	for k, m := range top[:n] {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(m.id), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(m.from), 10)
		b = append(b, "->"...)
		b = strconv.AppendInt(b, int64(m.to), 10)
	}
	return entered, left, string(b)
}
