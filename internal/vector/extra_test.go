package vector

import "testing"

func TestFromCountsDropsZeros(t *testing.T) {
	s := FromCounts(map[int32]float64{1: 0, 2: 3})
	if s.NNZ() != 1 || s.At(2) != 3 {
		t.Errorf("FromCounts = %v", s)
	}
}

func TestRangeOrder(t *testing.T) {
	s := FromCounts(map[int32]float64{9: 1, 1: 1, 5: 1})
	var got []int32
	s.Range(func(i int32, _ float64) { got = append(got, i) })
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("Range order = %v, want ascending", got)
		}
	}
}

func TestWeightsRangeVisitsAll(t *testing.T) {
	w := NewWeights()
	w.Set(1, 1)
	w.Set(2, 2)
	sum := 0.0
	w.Range(func(_ int32, v float64) { sum += v })
	if sum != 3 {
		t.Errorf("Range sum = %g", sum)
	}
}
