// Package learn implements the machine-learning substrate: the online
// linear SVM with elastic-net regularization (Pegasos gradient steps with a
// proximal elastic-net shrinkage that performs the paper's in-training
// feature selection), an online kernelized one-class SVM for the Feat-S
// baseline, a supervised HMM tagger, an averaged structured perceptron
// tagger, and a token subsequence kernel.
package learn

import (
	"math"

	"adaptiverank/internal/vector"
)

// ElasticNet holds the regularization parameters of Sections 3.1 and 4:
// LambdaAll weights the whole regularizer against the loss, and LambdaL2
// in [0,1] splits it between the L2 term (weight LambdaL2) and the L1 term
// (weight 1-LambdaL2).
type ElasticNet struct {
	LambdaAll float64
	LambdaL2  float64
}

// L2Coeff returns the effective L2 regularization constant.
func (e ElasticNet) L2Coeff() float64 { return e.LambdaAll * e.LambdaL2 }

// L1Coeff returns the effective L1 regularization constant.
func (e ElasticNet) L1Coeff() float64 { return e.LambdaAll * (1 - e.LambdaL2) }

// OnlineSVM is a linear model trained with Pegasos-style stochastic
// sub-gradient steps on the hinge loss followed by a proximal elastic-net
// shrinkage. The L1 component clips small weights to exactly zero, so the
// model stays sparse as the feature space grows — the in-training feature
// selection of Section 3.1. With UseBias=false and StepPair it is the
// RSVM-IE pair learner; with UseBias=true and Step it is a BAgg-IE
// committee member and the Top-K side classifier.
//
// The shrinkage is lazy (vector.Weights.Prox): a step costs O(features
// it touches), and the model is settled — every pending penalty paid —
// only when its owner calls Settle. Steps leave it unsettled; its
// readers still see exact weights.
type OnlineSVM struct {
	Reg     ElasticNet
	UseBias bool

	w    *vector.Weights
	bias float64
	t    int // gradient steps taken
}

// NewOnlineSVM returns an untrained model.
func NewOnlineSVM(reg ElasticNet, useBias bool) *OnlineSVM {
	return &OnlineSVM{Reg: reg, UseBias: useBias, w: vector.NewWeights()}
}

// Clone returns a deep copy (used by the Mod-C shadow model) in settled
// form (see vector.Weights.Clone).
func (m *OnlineSVM) Clone() *OnlineSVM {
	return &OnlineSVM{Reg: m.Reg, UseBias: m.UseBias, w: m.w.Clone(), bias: m.bias, t: m.t}
}

// Steps reports how many gradient steps the model has taken.
func (m *OnlineSVM) Steps() int { return m.t }

// Weights exposes the live weight vector; callers must not mutate it.
func (m *OnlineSVM) Weights() *vector.Weights { return m.w }

// Settle pays every pending penalty, leaving a plain dense weight vector
// (vector.Weights.Settle). Settling rounds differently from stepping on,
// so an owner settles at points its training stream alone fixes — the
// end of a training pass, or its own read of the model — never on
// another reader's behalf.
func (m *OnlineSVM) Settle() { m.w.Settle() }

// Bias returns the bias term (always 0 when UseBias is false).
func (m *OnlineSVM) Bias() float64 { return m.bias }

// Margin returns w·x + b through the weight vector's margin kernel. It
// takes the packed view (Sparse.Packed is zero-copy); training's hinge
// test folds the same products through Weights.CatchUp, so the two agree
// bit for bit.
func (m *OnlineSVM) Margin(x vector.Packed) float64 { return m.w.Margin(x, m.bias, nil) }

// Prob returns the logistic-normalized score 1/(1+exp(-(w·x+b))), the
// committee-member score s(d) of BAgg-IE.
func (m *OnlineSVM) Prob(x vector.Packed) float64 {
	return 1 / (1 + math.Exp(-m.Margin(x)))
}

// Step performs one online update on example x with label y in {-1,+1}:
// a Pegasos gradient step on the hinge loss, its learning rate from
// rate, followed by the proximal elastic-net shrinkage. The hinge test's
// margin pass also collects the penalties x's weights owe.
func (m *OnlineSVM) Step(x vector.Sparse, y float64) {
	eta := m.rate()
	if y*m.w.CatchUp(x.Packed(), m.bias) < 1 { // hinge sub-gradient
		m.w.AddSparse(eta*y, x)
		if m.UseBias {
			m.bias += eta * y
		}
	}
	m.shrink(eta)
}

// StepPair performs one stochastic pairwise descent update (RSVM-IE,
// Section 3.1): Step on the difference useful − useless with label +1.
// The margin and the sub-gradient are linear in the pair, so no
// difference is built: the margin is one CatchUp fold per row, each
// paying what its row's weights owe, and the sub-gradient is one
// AddSparse per row. That is Step's update in exact arithmetic; in
// floating point the margin and the weights of features both rows carry
// round differently.
func (m *OnlineSVM) StepPair(useful, useless vector.Sparse) {
	eta := m.rate()
	if m.w.CatchUp(useful.Packed(), m.bias)-m.w.CatchUp(useless.Packed(), 0) < 1 {
		m.w.AddSparse(eta, useful)
		m.w.AddSparse(-eta, useless)
		if m.UseBias {
			m.bias += eta
		}
	}
	m.shrink(eta)
}

// rate counts a gradient step and returns its learning rate
// eta_t = 1/(lambda*t), capped at 1.
func (m *OnlineSVM) rate() float64 {
	m.t++
	lambda := m.Reg.L2Coeff()
	if lambda <= 0 {
		// Pure-L1 or unregularized corner: fall back to LambdaAll (or 1)
		// so the learning-rate schedule stays defined.
		lambda = m.Reg.LambdaAll
		if lambda <= 0 {
			lambda = 1
		}
	}
	return min(1/(lambda*float64(m.t)), 1) // keep the first steps bounded
}

// shrink applies the proximal elastic-net step at learning rate eta.
// Each weight first decays multiplicatively (L2) and is then
// soft-thresholded (L1); weights that cross zero leave the sparse
// model's support when they pay.
func (m *OnlineSVM) shrink(eta float64) {
	m.w.Prox(max(1-eta*m.Reg.L2Coeff(), 0), eta*m.Reg.L1Coeff())
}
