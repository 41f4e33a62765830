package learn

import (
	"math"
	"slices"
	"testing"

	"adaptiverank/internal/vector"
)

// subtract is the merge StepPair no longer builds: s − t, index-sorted,
// with exact-zero differences dropped. Step on it with label +1 is the
// pair step in exact arithmetic.
func subtract(s, t vector.Sparse) vector.Sparse {
	p, q := s.Packed(), t.Packed()
	var idx []int32
	var val []float64
	i, j := 0, 0
	for i < len(p.Idx) && j < len(q.Idx) {
		switch {
		case p.Idx[i] < q.Idx[j]:
			idx, val = append(idx, p.Idx[i]), append(val, p.Val[i])
			i++
		case p.Idx[i] > q.Idx[j]:
			idx, val = append(idx, q.Idx[j]), append(val, -q.Val[j])
			j++
		default:
			if d := p.Val[i] - q.Val[j]; d != 0 {
				idx, val = append(idx, p.Idx[i]), append(val, d)
			}
			i++
			j++
		}
	}
	for ; i < len(p.Idx); i++ {
		idx, val = append(idx, p.Idx[i]), append(val, p.Val[i])
	}
	for ; j < len(q.Idx); j++ {
		idx, val = append(idx, q.Idx[j]), append(val, -q.Val[j])
	}
	return vector.NewSparse(idx, val)
}

// pairReader decodes a fuzz input byte by byte, reading zeros once the
// input is exhausted.
type pairReader struct{ data []byte }

func (r *pairReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// row decodes a document row over ids [0, 40). Its header byte holds
// the entry count (low 3 bits) and, in bit 3, the kind: a binary row
// (ids only, every value 1/√n, as the featurizer builds them) or a row
// of (id, value) pairs with values in [−8, 8) in steps of 1/16.
func (r *pairReader) row() vector.Sparse {
	h := r.byte()
	n, binary := int(h%8), h&8 != 0
	idx, val := make([]int32, n), make([]float64, n)
	for k := range idx {
		idx[k] = int32(r.byte() % 40)
		if !binary {
			val[k] = float64(int8(r.byte())) / 16
		}
	}
	if binary {
		slices.Sort(idx)
		return vector.Binary(slices.Compact(idx))
	}
	return vector.NewSparse(idx, val)
}

// FuzzStepPairMatchesDifference holds StepPair to the step it replaced:
// Step on the merged difference useful − useless with label +1. Two
// models take the same decoded warm-up — Step either way, StepPair and
// Settle, so some end it with a proximal step pending — then one takes
// StepPair(a, b) and the other Step(a − b, 1). Unless the margin lies
// within 1e-9 of 1, where rounding may pick the other hinge branch,
// every weight and the bias must agree within 1e-12·max(1, |w|), and a
// weight in only one support must be below 1e-12.
//
// Input: a regularization byte (LambdaAll from its low 2 bits, the L2
// share from the next 2, UseBias from bit 4), a warm-up length, that
// many operations (a byte, then their rows), and the pair's two rows.
func FuzzStepPairMatchesDifference(f *testing.F) {
	// Two binary rows of equal length share ids 2 and 3, whose values
	// cancel exactly: the difference drops them, the pair step adds and
	// takes back the same value. Id 2's weight puts w·useful above 1
	// while w·(useful − useless) is 0.
	f.Add([]byte{4, 1, 0, 2, 0, 16, 2, 64, 11, 1, 2, 3, 11, 2, 3, 4})
	// With a bias: the pair's ids 30 and 35 lie past the model's stored
	// range, which the warm-up left at ids 0 and 1.
	f.Add([]byte{20, 1, 0, 10, 0, 1, 2, 30, 16, 1, 8, 2, 35, 32, 0, 16})
	// Heavy L1 (LambdaAll 2, L2 share 0.25): the warm-up leaves id 6 at
	// 0.25 with 3 owed, so CatchUp(useful) clips it to zero before
	// CatchUp(useless) reads it, while id 5 survives its payment. Ids 5
	// and 7 take values large enough to outlast the step's own penalty.
	f.Add([]byte{15, 1, 0, 2, 5, 64, 6, 4, 2, 6, 16, 7, 127, 2, 5, 127, 6, 8})
	// A warm-up of Step, StepPair and Settle, ending settled.
	f.Add([]byte{5, 3, 0, 11, 0, 1, 2, 2, 10, 1, 3, 10, 2, 4, 3, 11, 0, 3, 5, 10, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &pairReader{data: data}
		b := r.byte()
		reg := ElasticNet{
			LambdaAll: []float64{0.1, 0.5, 1, 2}[b%4],
			LambdaL2:  []float64{1, 0.99, 0.5, 0.25}[b/4%4],
		}
		pair, diff := NewOnlineSVM(reg, b/16%2 == 1), NewOnlineSVM(reg, b/16%2 == 1)
		for n := r.byte() % 16; n > 0; n-- {
			switch op := r.byte() % 4; op {
			case 0, 1: // Step with label +1, −1
				x, y := r.row(), float64(1-2*int(op))
				pair.Step(x, y)
				diff.Step(x, y)
			case 2:
				u, v := r.row(), r.row()
				pair.StepPair(u, v)
				diff.StepPair(u, v)
			case 3:
				pair.Settle()
				diff.Settle()
			}
		}

		useful, useless := r.row(), r.row()
		d := subtract(useful, useless)
		if m := diff.Margin(d.Packed()); math.Abs(m-1) <= 1e-9 {
			t.Skipf("margin %v is within 1e-9 of the hinge", m)
		}
		pair.StepPair(useful, useless)
		diff.Step(d, 1)

		near := func(got, want float64) bool {
			return math.Abs(got-want) <= 1e-12*max(1, math.Abs(want))
		}
		if pair.Steps() != diff.Steps() || !near(pair.Bias(), diff.Bias()) {
			t.Fatalf("steps %d, bias %v; Step on the difference: steps %d, bias %v",
				pair.Steps(), pair.Bias(), diff.Steps(), diff.Bias())
		}
		got, want := pair.Weights().ToSparse(), diff.Weights().ToSparse()
		for i := range max(got.MaxIndex(), want.MaxIndex()) + 1 {
			g, w := got.At(int32(i)), want.At(int32(i))
			if !near(g, w) {
				t.Fatalf("weight %d = %v, Step on the difference %v", i, g, w)
			}
			if (g == 0) != (w == 0) && math.Abs(g+w) >= 1e-12 {
				t.Fatalf("weight %d = %v in one support only (Step on the difference: %v)", i, g, w)
			}
		}
	})
}
