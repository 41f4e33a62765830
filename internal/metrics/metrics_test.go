package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestRecallCurveEndpoints(t *testing.T) {
	labels := []bool{true, false, true, false}
	c := RecallCurve(labels, 4)
	if c[0] != 0 {
		t.Errorf("curve[0] = %g, want 0", c[0])
	}
	if c[100] != 0.5 {
		t.Errorf("curve[100] = %g, want 0.5 (2 of 4 useful processed)", c[100])
	}
}

func TestRecallCurveMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		labels := make([]bool, n)
		useful := 0
		for i := range labels {
			labels[i] = r.Intn(3) == 0
			if labels[i] {
				useful++
			}
		}
		c := RecallCurve(labels, useful+r.Intn(5))
		for i := 1; i < len(c); i++ {
			if c[i] < c[i-1] {
				return false
			}
		}
		return c[0] >= 0 && c[len(c)-1] <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRecallCurveZeroTotal(t *testing.T) {
	c := RecallCurve([]bool{true}, 0)
	for _, v := range c {
		if v != 0 {
			t.Fatal("zero-total curve must be all zeros")
		}
	}
}

func TestRankedRecallCurve(t *testing.T) {
	labels := []bool{true, false, true, false}
	// The sample's useful documents leave the denominator.
	if got, want := RankedRecallCurve(labels, 6, 2), RecallCurve(labels, 4); !slices.Equal(got, want) {
		t.Errorf("curve = %v, want %v", got, want)
	}
	// A sample that covered every useful document: a curve of ones.
	for _, sampleUseful := range []int{6, 7} {
		c := RankedRecallCurve(labels, 6, sampleUseful)
		if len(c) != 101 || slices.ContainsFunc(c, func(v float64) bool { return v != 1 }) {
			t.Errorf("sample useful %d of 6: curve = %v, want 101 ones", sampleUseful, c)
		}
	}
}

func TestRecallAtInterpolates(t *testing.T) {
	curve := make([]float64, 101)
	for i := range curve {
		curve[i] = float64(i) / 100
	}
	if got := RecallAt(curve, 50.5); math.Abs(got-0.505) > 1e-9 {
		t.Errorf("RecallAt(50.5) = %g, want 0.505", got)
	}
	if RecallAt(curve, -5) != 0 || RecallAt(curve, 200) != 1 {
		t.Error("RecallAt must clamp to the curve ends")
	}
	if RecallAt(nil, 50) != 0 {
		t.Error("RecallAt(nil) must be 0")
	}
}

func TestAveragePrecisionKnownValues(t *testing.T) {
	// Useful docs at ranks 1 and 3: AP = (1/1 + 2/3)/2 = 5/6.
	got := AveragePrecision([]bool{true, false, true})
	if math.Abs(got-5.0/6) > 1e-12 {
		t.Errorf("AP = %g, want 5/6", got)
	}
	if AveragePrecision([]bool{false, false}) != 0 {
		t.Error("AP with no useful docs must be 0")
	}
	if AveragePrecision([]bool{true, true}) != 1 {
		t.Error("AP of a perfect ranking must be 1")
	}
}

func TestAUCKnownValues(t *testing.T) {
	if got := AUC([]bool{true, true, false, false}); got != 1 {
		t.Errorf("AUC perfect = %g, want 1", got)
	}
	if got := AUC([]bool{false, false, true, true}); got != 0 {
		t.Errorf("AUC inverted = %g, want 0", got)
	}
	if got := AUC([]bool{true, false, true, false}); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AUC = %g, want 0.75", got)
	}
	if got := AUC([]bool{true, true}); got != 0.5 {
		t.Errorf("AUC single-class = %g, want 0.5", got)
	}
}

func TestQuickAUCInUnitInterval(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		labels := make([]bool, 1+r.Intn(40))
		for i := range labels {
			labels[i] = r.Intn(2) == 0
		}
		a := AUC(labels)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAUCReversalSymmetry(t *testing.T) {
	// Reversing a ranking with both classes present maps AUC -> 1-AUC.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		labels := make([]bool, 2+r.Intn(30))
		pos := 0
		for i := range labels {
			labels[i] = r.Intn(2) == 0
			if labels[i] {
				pos++
			}
		}
		if pos == 0 || pos == len(labels) {
			return true
		}
		rev := make([]bool, len(labels))
		for i := range labels {
			rev[i] = labels[len(labels)-1-i]
		}
		return math.Abs(AUC(labels)+AUC(rev)-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregate(t *testing.T) {
	s := Aggregate([]float64{1, 3})
	if s.Mean != 2 || s.Std != 1 || s.N != 2 {
		t.Errorf("Aggregate = %+v, want mean 2 std 1", s)
	}
	if z := Aggregate(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("Aggregate(nil) = %+v", z)
	}
	if got := s.String(); got != "2.0±1.0%" {
		t.Errorf("String = %q", got)
	}
}

func TestAggregateCurves(t *testing.T) {
	avg := AggregateCurves([][]float64{{0, 1}, {1, 0}})
	if avg[0] != 0.5 || avg[1] != 0.5 {
		t.Errorf("AggregateCurves = %v, want [0.5 0.5]", avg)
	}
	if AggregateCurves(nil) != nil {
		t.Error("AggregateCurves(nil) must be nil")
	}
}

func TestTimeAccount(t *testing.T) {
	a := TimeAccount{Extraction: time.Second, Ranking: 100 * time.Millisecond,
		Detection: 50 * time.Millisecond, Training: 25 * time.Millisecond}
	if a.Total() != 1175*time.Millisecond {
		t.Errorf("Total = %v", a.Total())
	}
	if a.Overhead() != 175*time.Millisecond {
		t.Errorf("Overhead = %v", a.Overhead())
	}
	var b TimeAccount
	b.Add(a)
	b.Add(a)
	if b.Extraction != 2*time.Second {
		t.Errorf("Add accumulated %v", b.Extraction)
	}
	if Minutes(90*time.Second) != 1.5 {
		t.Error("Minutes conversion")
	}
}

func TestRecallCurveSmallN(t *testing.T) {
	// A single-document order: the curve must jump from 0 to 1.
	c := RecallCurve([]bool{true}, 1)
	if c[0] != 0 || c[100] != 1 {
		t.Errorf("curve endpoints = %g, %g", c[0], c[100])
	}
	// Denominator larger than the processed useful count caps below 1.
	c2 := RecallCurve([]bool{true}, 4)
	if c2[100] != 0.25 {
		t.Errorf("partial curve end = %g, want 0.25", c2[100])
	}
}

func TestStatStringFormatting(t *testing.T) {
	s := Stat{Mean: 45.666, Std: 0.04}
	if got := s.String(); got != "45.7±0.0%" {
		t.Errorf("String = %q", got)
	}
}
