package learn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"adaptiverank/internal/vector"
)

// separableExample draws an example from a linearly separable problem:
// features 0/1 positive class, features 2/3 negative class.
func separableExample(r *rand.Rand) (vector.Sparse, float64) {
	m := make(map[int32]float64)
	if r.Intn(2) == 0 {
		m[0] = 1
		m[int32(r.Intn(2))] = 1
		m[int32(10+r.Intn(5))] = 1 // noise feature
		return vector.FromCounts(m), 1
	}
	m[2] = 1
	m[int32(2+r.Intn(2))] = 1
	m[int32(10+r.Intn(5))] = 1
	return vector.FromCounts(m), -1
}

func TestOnlineSVMLearnsSeparableProblem(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := NewOnlineSVM(ElasticNet{LambdaAll: 0.01, LambdaL2: 1}, true)
	for i := 0; i < 3000; i++ {
		x, y := separableExample(r)
		m.Step(x, y)
	}
	correct := 0
	for i := 0; i < 500; i++ {
		x, y := separableExample(r)
		if (m.Margin(x.Packed()) > 0) == (y > 0) {
			correct++
		}
	}
	if acc := float64(correct) / 500; acc < 0.95 {
		t.Errorf("accuracy = %.3f on separable data, want >= 0.95", acc)
	}
}

func TestOnlineSVMElasticNetSparsifies(t *testing.T) {
	// With a strong L1 component, rarely-informative features must be
	// clipped out of the model (in-training feature selection).
	r := rand.New(rand.NewSource(2))
	dense := NewOnlineSVM(ElasticNet{LambdaAll: 0.05, LambdaL2: 1}, true)    // pure L2
	sparse := NewOnlineSVM(ElasticNet{LambdaAll: 0.05, LambdaL2: 0.5}, true) // heavy L1
	for i := 0; i < 2000; i++ {
		x, y := separableExample(r)
		dense.Step(x, y)
		sparse.Step(x, y)
	}
	if sparse.Weights().NNZ() >= dense.Weights().NNZ() {
		t.Errorf("L1 model has %d features, pure-L2 has %d; want strictly fewer",
			sparse.Weights().NNZ(), dense.Weights().NNZ())
	}
	if sparse.Weights().NNZ() == 0 {
		t.Error("L1 model collapsed to empty; regularization too strong")
	}
}

func TestOnlineSVMBiasOnlyWhenEnabled(t *testing.T) {
	x := vector.FromCounts(map[int32]float64{0: 1})
	noBias := NewOnlineSVM(ElasticNet{LambdaAll: 0.1, LambdaL2: 0.99}, false)
	for i := 0; i < 50; i++ {
		noBias.Step(x, 1)
	}
	if noBias.Bias() != 0 {
		t.Errorf("bias = %g with UseBias=false, want 0", noBias.Bias())
	}
	withBias := NewOnlineSVM(ElasticNet{LambdaAll: 0.1, LambdaL2: 0.99}, true)
	for i := 0; i < 50; i++ {
		withBias.Step(x, 1)
	}
	if withBias.Bias() == 0 {
		t.Error("bias stayed 0 with UseBias=true on all-positive stream")
	}
}

func TestOnlineSVMCloneIndependence(t *testing.T) {
	m := NewOnlineSVM(ElasticNet{LambdaAll: 0.1, LambdaL2: 0.99}, true)
	x := vector.FromCounts(map[int32]float64{1: 1})
	m.Step(x, 1)
	c := m.Clone()
	for i := 0; i < 100; i++ {
		c.Step(x, -1)
	}
	if m.Steps() != 1 {
		t.Errorf("original Steps = %d after training the clone, want 1", m.Steps())
	}
	if m.Weights().At(1) == c.Weights().At(1) && m.Bias() == c.Bias() {
		t.Error("clone training leaked into the original model")
	}
}

func TestOnlineSVMProbMonotoneInMargin(t *testing.T) {
	m := NewOnlineSVM(ElasticNet{LambdaAll: 0.01, LambdaL2: 1}, false)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		x, y := separableExample(r)
		m.Step(x, y)
	}
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, _ := separableExample(rr)
		b, _ := separableExample(rr)
		ma, mb := m.Margin(a.Packed()), m.Margin(b.Packed())
		pa, pb := m.Prob(a.Packed()), m.Prob(b.Packed())
		if ma < mb {
			return pa <= pb
		}
		return pa >= pb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOnlineSVMProbRange(t *testing.T) {
	m := NewOnlineSVM(ElasticNet{LambdaAll: 0.1, LambdaL2: 0.99}, true)
	x := vector.FromCounts(map[int32]float64{0: 100})
	m.Step(x, 1)
	p := m.Prob(x.Packed())
	if p < 0 || p > 1 || math.IsNaN(p) {
		t.Errorf("Prob = %g, want in [0,1]", p)
	}
}

func TestStepPairPrefersUseful(t *testing.T) {
	m := NewOnlineSVM(ElasticNet{LambdaAll: 0.1, LambdaL2: 0.99}, false)
	useful := vector.FromCounts(map[int32]float64{0: 1, 1: 1})
	useless := vector.FromCounts(map[int32]float64{2: 1, 3: 1})
	for i := 0; i < 200; i++ {
		m.StepPair(useful, useless)
	}
	if m.Margin(useful.Packed()) <= m.Margin(useless.Packed()) {
		t.Errorf("score(useful)=%g <= score(useless)=%g after pairwise training",
			m.Margin(useful.Packed()), m.Margin(useless.Packed()))
	}
}

func TestElasticNetCoefficients(t *testing.T) {
	e := ElasticNet{LambdaAll: 0.1, LambdaL2: 0.99}
	if math.Abs(e.L2Coeff()-0.099) > 1e-12 {
		t.Errorf("L2Coeff = %g, want 0.099", e.L2Coeff())
	}
	if math.Abs(e.L1Coeff()-0.001) > 1e-12 {
		t.Errorf("L1Coeff = %g, want 0.001", e.L1Coeff())
	}
}

func TestOnlineSVMZeroRegularizationStillLearns(t *testing.T) {
	m := NewOnlineSVM(ElasticNet{}, true)
	x := vector.FromCounts(map[int32]float64{0: 1})
	for i := 0; i < 10; i++ {
		m.Step(x, 1)
	}
	if m.Margin(x.Packed()) <= 0 {
		t.Errorf("margin = %g, want positive even with zero regularization", m.Margin(x.Packed()))
	}
}
