package learn

import (
	"math"

	"adaptiverank/internal/vector"
)

// OneClassSVM is an online kernelized one-class SVM trained with
// Pegasos-style steps, used by the Feat-S update-detection baseline
// (Glazer et al., "Feature shift detection"). It learns the support of the
// training distribution; documents with decision value below the learned
// offset are "outside" the distribution seen so far.
//
// The model keeps a budgeted support set: when the budget is exceeded the
// support vector with the smallest |alpha| is evicted, keeping per-example
// cost bounded.
type OneClassSVM struct {
	// Gamma is the Gaussian kernel bandwidth: k(x,y)=exp(-Gamma*||x-y||^2).
	Gamma float64
	// Nu in (0,1] trades off the fraction of training outliers.
	Nu float64
	// Budget caps the support set size.
	Budget int

	sv    []vector.Sparse
	alpha []float64
	rho   float64
	t     int
}

// NewOneClassSVM returns an untrained model (Feat-S's setting is in
// internal/update).
func NewOneClassSVM(gamma, nu float64, budget int) *OneClassSVM {
	return &OneClassSVM{Gamma: gamma, Nu: nu, Budget: budget}
}

// Kernel evaluates the Gaussian kernel between two sparse vectors.
func (m *OneClassSVM) Kernel(a, b vector.Sparse) float64 {
	// ||a-b||^2 = ||a||^2 + ||b||^2 - 2<a,b>
	d := a.L2()*a.L2() + b.L2()*b.L2() - 2*a.Dot(b)
	if d < 0 {
		d = 0
	}
	return math.Exp(-m.Gamma * d)
}

// Decision returns f(x) = sum_i alpha_i k(sv_i, x) - rho. Non-negative
// values mean x lies inside the learned support region.
func (m *OneClassSVM) Decision(x vector.Sparse) float64 {
	var f float64
	for i, s := range m.sv {
		f += m.alpha[i] * m.Kernel(s, x)
	}
	return f - m.rho
}

// Inside reports whether x falls inside the learned support region.
func (m *OneClassSVM) Inside(x vector.Sparse) bool { return m.Decision(x) >= 0 }

// oneClassLambda is the regularization constant of the Pegasos steps.
const oneClassLambda = 0.1

// Step performs one online training update on example x, following the
// nu-formulation of the one-class SVM objective
//
//	min  lambda/2 ||w||^2 + (1/(nu*n)) sum max(0, rho - <w,phi(x_i)>) - rho
//
// with stochastic sub-gradient steps on both w (the kernel expansion) and
// the offset rho. At equilibrium roughly a nu-fraction of the training
// stream violates the margin, as in the batch formulation.
func (m *OneClassSVM) Step(x vector.Sparse) {
	m.t++
	eta := 1 / (oneClassLambda * float64(m.t))
	if eta > 1 {
		eta = 1
	}
	violation := m.Decision(x) < 0
	// Regularization decay on the expansion coefficients.
	decay := 1 - eta*oneClassLambda
	if decay < 0 {
		decay = 0
	}
	for i := range m.alpha {
		m.alpha[i] *= decay
	}
	if violation {
		m.sv = append(m.sv, x)
		m.alpha = append(m.alpha, eta/m.Nu)
		m.rho += eta * (1 - 1/m.Nu)
	} else {
		m.rho += eta
	}
	if m.rho < 0 {
		m.rho = 0
	}
	m.evict()
}

// evict enforces the support budget by dropping the smallest-|alpha| vector.
func (m *OneClassSVM) evict() {
	for len(m.sv) > m.Budget {
		min := 0
		for i := range m.alpha {
			if math.Abs(m.alpha[i]) < math.Abs(m.alpha[min]) {
				min = i
			}
		}
		m.sv = append(m.sv[:min], m.sv[min+1:]...)
		m.alpha = append(m.alpha[:min], m.alpha[min+1:]...)
	}
}

// SupportSize reports the current number of support vectors.
func (m *OneClassSVM) SupportSize() int { return len(m.sv) }
