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
// selection of Section 3.1. With UseBias=false and difference vectors as
// inputs it is the RSVM-IE pair learner; with UseBias=true it is a BAgg-IE
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

	diff vector.Sparse // StepPair's reused difference buffer; never shared
}

// NewOnlineSVM returns an untrained model.
func NewOnlineSVM(reg ElasticNet, useBias bool) *OnlineSVM {
	return &OnlineSVM{Reg: reg, UseBias: useBias, w: vector.NewWeights()}
}

// Clone returns a deep copy (used by the Mod-C shadow model) in settled
// form (see vector.Weights.Clone). The copy starts with an empty
// difference buffer of its own.
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
// a Pegasos gradient step on the hinge loss with learning rate
// eta_t = 1/(lambda*t), followed by the proximal elastic-net shrinkage
// that decays all weights (L2) and clips them toward zero (L1). The hinge
// test's margin pass also collects the penalties x's weights owe.
func (m *OnlineSVM) Step(x vector.Sparse, y float64) {
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
	eta := 1 / (lambda * float64(m.t))
	if eta > 1 {
		eta = 1 // keep the first steps bounded
	}

	if y*m.w.CatchUp(x.Packed(), m.bias) < 1 { // hinge sub-gradient
		m.w.AddSparse(eta*y, x)
		if m.UseBias {
			m.bias += eta * y
		}
	}

	// Proximal elastic-net shrinkage. Each weight first decays
	// multiplicatively (L2) and is then soft-thresholded (L1); weights
	// that cross zero leave the sparse model's support when they pay.
	decay := 1 - eta*m.Reg.L2Coeff()
	if decay < 0 {
		decay = 0
	}
	m.w.Prox(decay, eta*m.Reg.L1Coeff())
}

// StepPair performs one stochastic pairwise descent update (RSVM-IE,
// Section 3.1): a hinge step on w·(useful - useless) >= 1. The
// difference is built in the model's own buffer, which Step only reads.
func (m *OnlineSVM) StepPair(useful, useless vector.Sparse) {
	m.diff = useful.SubInto(m.diff, useless)
	m.Step(m.diff, 1)
}
