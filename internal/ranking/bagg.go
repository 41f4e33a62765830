package ranking

import (
	"time"

	"adaptiverank/internal/learn"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/vector"
)

// BAggIE is the paper's BAgg-IE strategy: a bagged committee of three
// online linear SVM classifiers with elastic-net in-training feature
// selection. Incoming labelled documents are dealt round-robin to the
// members (disjoint training splits); each member consumes examples with
// balanced labels via per-member holdback queues. The document score is
// the sum of the members' logistic-normalized scores.
type BAggIE struct {
	members []*learn.OnlineSVM
	qPos    [][]vector.Sparse
	qNeg    [][]vector.Sparse
	next    int

	// Observability instruments, nil until Instrument is called.
	obsLearn *obs.Histogram
	obsSteps *obs.Counter
	// tr emits one span per Learn call when span tracing is enabled
	// (nil otherwise).
	tr *obs.Tracer
}

// BAggOptions configures BAgg-IE; zero fields take the paper's defaults.
type BAggOptions struct {
	// LambdaAll and LambdaL2 are the elastic-net parameters
	// (defaults 0.5 and 0.99 per Section 4).
	LambdaAll, LambdaL2 float64
	// Members is the committee size (default 3 per Section 3.1).
	Members int
}

// baggQueueCap bounds each member's per-label holdback queue, which
// keeps its newest entries: for sparse relations the useless queue would
// otherwise grow without bound.
const baggQueueCap = 2000

func (o *BAggOptions) defaults() {
	if o.LambdaAll == 0 {
		o.LambdaAll = 0.5
	}
	if o.LambdaL2 == 0 {
		o.LambdaL2 = 0.99
	}
	if o.Members == 0 {
		o.Members = 3
	}
}

// NewBAggIE builds an untrained BAgg-IE ranker.
func NewBAggIE(opts BAggOptions) *BAggIE {
	opts.defaults()
	b := &BAggIE{
		members: make([]*learn.OnlineSVM, opts.Members),
		qPos:    make([][]vector.Sparse, opts.Members),
		qNeg:    make([][]vector.Sparse, opts.Members),
	}
	for i := range b.members {
		b.members[i] = learn.NewOnlineSVM(
			learn.ElasticNet{LambdaAll: opts.LambdaAll, LambdaL2: opts.LambdaL2}, true)
	}
	return b
}

// Name implements Ranker.
func (b *BAggIE) Name() string { return "BAgg-IE" }

// Instrument implements obs.Instrumentable: Learn calls are timed, the
// committee's combined Pegasos steps counted, and each Learn call
// becomes a "bagg-learn" span under the tracer's current scope. Clones
// are never instrumented (see RSVMIE.Instrument).
func (b *BAggIE) Instrument(reg *obs.Registry, _ obs.Recorder, tr *obs.Tracer) {
	b.obsLearn = reg.Histogram(obs.MetricRankingBAggLearnSeconds, nil)
	b.obsSteps = reg.Counter(obs.MetricRankingBAggSteps)
	b.tr = tr
}

// Learn deals the example to the next committee member and drains that
// member's balanced queue.
func (b *BAggIE) Learn(x vector.Sparse, useful bool) {
	sp := b.tr.Start(obs.SpanBAggLearn)
	if b.obsLearn == nil {
		b.learn(x, useful)
		sp.End()
		return
	}
	t := time.Now() //lint:allow detrand measured telemetry only; never feeds model state
	s0 := 0
	for _, m := range b.members {
		s0 += m.Steps()
	}
	b.learn(x, useful)
	s1 := 0
	for _, m := range b.members {
		s1 += m.Steps()
	}
	b.obsLearn.ObserveDuration(time.Since(t)) //lint:allow detrand measured telemetry only; never feeds model state
	b.obsSteps.Add(int64(s1 - s0))
	sp.SetNum("steps", float64(s1-s0)).End()
}

func (b *BAggIE) learn(x vector.Sparse, useful bool) {
	m := b.next
	b.next = (b.next + 1) % len(b.members)
	if useful {
		b.qPos[m] = appendCapped(b.qPos[m], x)
	} else {
		b.qNeg[m] = appendCapped(b.qNeg[m], x)
	}
	// Feed the member one positive and one negative whenever both are
	// available, keeping its training stream label-balanced.
	for len(b.qPos[m]) > 0 && len(b.qNeg[m]) > 0 {
		pos, neg := b.qPos[m][0], b.qNeg[m][0]
		b.qPos[m] = b.qPos[m][1:]
		b.qNeg[m] = b.qNeg[m][1:]
		b.members[m].Step(pos, 1)
		b.members[m].Step(neg, -1)
	}
}

func appendCapped(q []vector.Sparse, x vector.Sparse) []vector.Sparse {
	q = append(q, x)
	if len(q) > baggQueueCap {
		q = q[1:]
	}
	return q
}

// Score implements Ranker: the sum of the members' logistic scores.
func (b *BAggIE) Score(x vector.Sparse) float64 {
	p := x.Packed()
	var s float64
	for _, m := range b.members {
		s += m.Prob(p)
	}
	return s
}

// Model implements Ranker: the committee's summed weight vector, which is
// the linear direction the (locally monotone) committee score follows and
// what Mod-C/Top-K compare across updates.
func (b *BAggIE) Model() *vector.Weights {
	sum := vector.NewWeights()
	for _, m := range b.members {
		m.Weights().Range(func(i int32, v float64) { sum.Add(i, v) })
	}
	return sum
}

// Settle implements Ranker: it settles every committee member.
func (b *BAggIE) Settle() {
	for _, m := range b.members {
		m.Settle()
	}
}

// Clone implements Ranker.
func (b *BAggIE) Clone() Ranker {
	c := &BAggIE{
		members: make([]*learn.OnlineSVM, len(b.members)),
		qPos:    make([][]vector.Sparse, len(b.members)),
		qNeg:    make([][]vector.Sparse, len(b.members)),
		next:    b.next,
	}
	for i := range b.members {
		c.members[i] = b.members[i].Clone()
		c.qPos[i] = append([]vector.Sparse(nil), b.qPos[i]...)
		c.qNeg[i] = append([]vector.Sparse(nil), b.qNeg[i]...)
	}
	return c
}

// Members exposes the committee size.
func (b *BAggIE) Members() int { return len(b.members) }
