package ranking

import (
	"math/rand"
	"time"

	"adaptiverank/internal/learn"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/vector"
)

// RSVMIE is the paper's RSVM-IE strategy: an online pairwise RankSVM with
// elastic-net in-training feature selection, trained by stochastic pairwise
// descent over (useful, useless) document pairs observed during extraction.
type RSVMIE struct {
	model   *learn.OnlineSVM
	useful  *reservoir
	useless *reservoir
	pairs   int
	rng     *rand.Rand

	// Observability instruments, nil until Instrument is called. Learn
	// times the Pegasos pair steps only when attached.
	obsLearn   *obs.Histogram
	obsSteps   *obs.Counter
	obsSupport *obs.Gauge
	// tr emits one span per Learn call when span tracing is enabled
	// (nil otherwise); spans nest under the pipeline's current training
	// scope.
	tr *obs.Tracer
}

// RSVMOptions configures RSVM-IE; zero fields take the paper's Section 4
// defaults.
type RSVMOptions struct {
	// LambdaAll and LambdaL2 are the elastic-net parameters
	// (defaults 0.1 and 0.99 per Section 4).
	LambdaAll, LambdaL2 float64
	// PairsPerExample is the number of stochastic pairs formed per
	// incoming labelled document (default 4).
	PairsPerExample int
	// Seed drives pair sampling.
	Seed int64
}

// reservoirSize bounds the per-label document reservoirs pairs are
// sampled from.
const reservoirSize = 400

func (o *RSVMOptions) defaults() {
	if o.LambdaAll == 0 {
		o.LambdaAll = 0.1
	}
	if o.LambdaL2 == 0 {
		o.LambdaL2 = 0.99
	}
	if o.PairsPerExample == 0 {
		o.PairsPerExample = 4
	}
}

// NewRSVMIE builds an untrained RSVM-IE ranker.
func NewRSVMIE(opts RSVMOptions) *RSVMIE {
	opts.defaults()
	return &RSVMIE{
		model:   learn.NewOnlineSVM(learn.ElasticNet{LambdaAll: opts.LambdaAll, LambdaL2: opts.LambdaL2}, false),
		useful:  newReservoir(reservoirSize, opts.Seed*2+1),
		useless: newReservoir(reservoirSize, opts.Seed*2+2),
		pairs:   opts.PairsPerExample,
		rng:     rand.New(rand.NewSource(opts.Seed)),
	}
}

// Name implements Ranker.
func (r *RSVMIE) Name() string { return "RSVM-IE" }

// Instrument implements obs.Instrumentable: Learn calls are timed into a
// latency histogram, Pegasos gradient steps are counted, and the model's
// non-zero support is set as a gauge at every Settle. Each Learn call
// becomes a "rsvm-learn" span under the tracer's current scope, so the
// flame timeline shows individual train steps inside init-train and
// train-update phases. Clones (the Mod-C shadow model) are never
// instrumented, so the metrics describe the live model only.
func (r *RSVMIE) Instrument(reg *obs.Registry, _ obs.Recorder, tr *obs.Tracer) {
	r.obsLearn = reg.Histogram(obs.MetricRankingRSVMLearnSeconds, nil)
	r.obsSteps = reg.Counter(obs.MetricRankingRSVMSteps)
	r.obsSupport = reg.Gauge(obs.MetricRankingRSVMSupport)
	r.tr = tr
}

// Learn forms stochastic pairs between the incoming document and sampled
// opposite-label documents and performs pairwise hinge updates.
func (r *RSVMIE) Learn(x vector.Sparse, useful bool) {
	sp := r.tr.Start(obs.SpanRSVMLearn)
	if r.obsLearn == nil {
		r.learn(x, useful)
		sp.End()
		return
	}
	t := time.Now() //lint:allow detrand measured telemetry only; never feeds model state
	s0 := r.model.Steps()
	r.learn(x, useful)
	r.obsLearn.ObserveDuration(time.Since(t)) //lint:allow detrand measured telemetry only; never feeds model state
	steps := r.model.Steps() - s0
	r.obsSteps.Add(int64(steps))
	sp.SetNum("steps", float64(steps)).End()
}

func (r *RSVMIE) learn(x vector.Sparse, useful bool) {
	if useful {
		r.useful.add(x)
		for i := 0; i < r.pairs; i++ {
			if neg, ok := r.useless.sample(); ok {
				r.model.StepPair(x, neg)
			}
		}
		return
	}
	r.useless.add(x)
	for i := 0; i < r.pairs; i++ {
		if pos, ok := r.useful.sample(); ok {
			r.model.StepPair(pos, x)
		}
	}
}

// Score implements Ranker: the RankSVM linear score w·x.
func (r *RSVMIE) Score(x vector.Sparse) float64 { return r.model.Margin(x.Packed()) }

// Model implements Ranker.
func (r *RSVMIE) Model() *vector.Weights { return r.model.Weights() }

// Settle implements Ranker. The support gauge is read here, where the
// support is already settled, so instrumentation adds no settle point.
func (r *RSVMIE) Settle() {
	r.model.Settle()
	if r.obsSupport != nil {
		r.obsSupport.Set(float64(r.model.Weights().NNZ()))
	}
}

// Clone implements Ranker.
func (r *RSVMIE) Clone() Ranker {
	return &RSVMIE{
		model:   r.model.Clone(),
		useful:  r.useful.clone(),
		useless: r.useless.clone(),
		pairs:   r.pairs,
		rng:     rand.New(rand.NewSource(r.rng.Int63())),
	}
}

// Steps reports the number of pairwise gradient steps taken.
func (r *RSVMIE) Steps() int { return r.model.Steps() }
