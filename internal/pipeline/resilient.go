package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/extract"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/relation"
)

// ContextOracle is the fault-aware extension of Oracle: labelling that
// can be cancelled, time out, or fail. The pipeline prefers it when the
// configured oracle implements it; errors from LabelContext drive the
// skip-and-requeue policy of the extraction loop.
type ContextOracle interface {
	Oracle
	// LabelContext labels d, honouring ctx. The returned error is nil
	// for a final answer; ErrBreakerOpen-wrapped errors mean "try again
	// later" (the pipeline requeues the document), any other error is
	// permanent for this run (the pipeline skips the document).
	LabelContext(ctx context.Context, d *corpus.Document) (useful bool, tuples []relation.Tuple, err error)
}

// Sentinel errors of the resilience layer.
var (
	// ErrDocPoisoned marks a document whose extraction failed on every
	// allowed attempt: retrying cannot help within this run.
	ErrDocPoisoned = errors.New("pipeline: document poisoned")
	// ErrBreakerOpen marks a fast-failed labelling call while the
	// circuit breaker is open: the document itself was never tried and
	// should be requeued.
	ErrBreakerOpen = errors.New("pipeline: circuit breaker open")
)

// labelWithContext routes one labelling call through the fault-aware
// path when the oracle supports it.
func labelWithContext(ctx context.Context, o Oracle, d *corpus.Document) (bool, []relation.Tuple, error) {
	if co, ok := o.(ContextOracle); ok {
		return co.LabelContext(ctx, d)
	}
	if err := ctx.Err(); err != nil {
		return false, nil, err
	}
	useful, tuples := o.Label(d)
	return useful, tuples, nil
}

// ResilientOptions tunes the retry/backoff/breaker behaviour of a
// Resilient oracle. The defaults favour determinism and fast tests;
// production deployments against a remote extraction service would raise
// the timeout and backoff caps.
type ResilientOptions struct {
	// MaxAttempts bounds the extraction attempts per document per
	// labelling call (default 4). When all fail, the call returns an
	// ErrDocPoisoned-wrapped error and the pipeline skips the document.
	MaxAttempts int
	// AttemptTimeout bounds one extraction attempt (default 2s; <0
	// disables). A hung extractor attempt is abandoned when it expires —
	// note that an attempt which ignores its context then leaks a
	// goroutine until it returns on its own; bounded-hang fault models
	// (extract.Flaky) always return.
	AttemptTimeout time.Duration
	// BaseBackoff is the delay before the second attempt; each further
	// retry doubles it, capped at MaxBackoff, with ±50% deterministic
	// jitter from jitterSeed. Defaults: 5ms base, 500ms cap.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// BreakerThreshold is the number of consecutive failed attempts that
	// opens the circuit breaker (default 8; <0 disables the breaker).
	// While open, labelling calls fail fast with ErrBreakerOpen instead
	// of hammering a down backend.
	BreakerThreshold int
	// BreakerCooldown is how many fast-failed calls the open breaker
	// absorbs before letting one probe through (half-open); a successful
	// probe closes the breaker, a failed one re-opens it (default 16).
	// Counting calls instead of wall-clock time keeps runs depending
	// only on the event sequence, never on scheduling.
	BreakerCooldown int
	// Sleep replaces time.Sleep between retries (tests capture backoffs
	// with it); nil uses time.Sleep.
	Sleep func(time.Duration)
}

func (o *ResilientOptions) defaults() {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.AttemptTimeout == 0 {
		o.AttemptTimeout = 2 * time.Second
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 5 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 500 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 8
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 16
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
}

// jitterSeed seeds the backoff jitter.
const jitterSeed = 1

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// Resilient wraps a labelling oracle with the fault-tolerance stack a
// black-box extraction system needs in production: per-attempt timeout,
// capped exponential backoff with seeded jitter, panic recovery, and a
// consecutive-failure circuit breaker with call-counted half-open
// probing. Every fault, retry, and breaker transition is published as
// obs counters and trace events, so the SLO watchdog's fault-rate rule
// (obs.RuleFaultRate) sees the extractor degrading in real time.
type Resilient struct {
	inner Oracle
	opts  ResilientOptions

	mu          sync.Mutex
	rng         *rand.Rand
	state       int
	consecFails int
	openCalls   int

	rec       obs.Recorder
	cFaults   *obs.Counter
	cPanics   *obs.Counter
	cTimeouts *obs.Counter
	cRetries  *obs.Counter
	cPoisoned *obs.Counter
	cTrips    *obs.Counter
	cFastFail *obs.Counter
}

// NewResilient wraps inner. Instrument attaches metrics and tracing; an
// un-instrumented Resilient pays only no-op instrument writes.
func NewResilient(inner Oracle, opts ResilientOptions) *Resilient {
	opts.defaults()
	r := &Resilient{
		inner: inner, opts: opts,
		rng: rand.New(rand.NewSource(jitterSeed)),
	}
	r.Instrument(nil, obs.Nop(), nil)
	return r
}

// Instrument implements obs.Instrumentable.
func (r *Resilient) Instrument(reg *obs.Registry, rec obs.Recorder, tr *obs.Tracer) {
	r.rec = rec
	r.cFaults = reg.Counter(obs.MetricResilienceFaults)
	r.cPanics = reg.Counter(obs.MetricResiliencePanicsRecovered)
	r.cTimeouts = reg.Counter(obs.MetricResilienceTimeouts)
	r.cRetries = reg.Counter(obs.MetricResilienceRetries)
	r.cPoisoned = reg.Counter(obs.MetricResilienceDocsPoisoned)
	r.cTrips = reg.Counter(obs.MetricResilienceBreakerTrips)
	r.cFastFail = reg.Counter(obs.MetricResilienceBreakerFastFails)
	// Forward to the wrapped oracle so a whole chain instruments with
	// one call.
	if in, ok := r.inner.(obs.Instrumentable); ok {
		in.Instrument(reg, rec, tr)
	}
}

// Label implements Oracle for fault-unaware callers.
func (r *Resilient) Label(d *corpus.Document) (bool, []relation.Tuple) {
	//lint:allow ctxflow compat shim: the Oracle interface has no ctx to thread
	useful, tuples, _ := r.LabelContext(context.Background(), d)
	return useful, tuples
}

// TotalUseful implements Oracle.
func (r *Resilient) TotalUseful() (int, bool) { return r.inner.TotalUseful() }

// LabelContext implements ContextOracle: it retries transient extractor
// failures with backoff, converts panics and timeouts into retryable
// errors, and fails fast while the circuit breaker is open.
func (r *Resilient) LabelContext(ctx context.Context, d *corpus.Document) (bool, []relation.Tuple, error) {
	if !r.breakerAllow() {
		r.cFastFail.Inc()
		if r.rec.Enabled() {
			r.rec.Record(obs.Event{Kind: obs.KindExtractFault, Doc: int64(d.ID), Name: obs.FaultBreakerOpen})
		}
		return false, nil, fmt.Errorf("doc %d: %w", d.ID, ErrBreakerOpen)
	}
	var lastErr error
	for attempt := 1; attempt <= r.opts.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return false, nil, err
		}
		useful, tuples, err := r.attempt(ctx, d)
		if err == nil {
			r.breakerSuccess()
			return useful, tuples, nil
		}
		if ctx.Err() != nil {
			// The run is being cancelled: surface the cancellation, not
			// the attempt failure, and do not count it against the doc.
			return false, nil, ctx.Err()
		}
		lastErr = err
		class := obs.FaultError
		switch {
		case errors.Is(err, errAttemptPanic):
			class = obs.FaultPanic
			r.cPanics.Inc()
		case errors.Is(err, context.DeadlineExceeded):
			class = obs.FaultTimeout
			r.cTimeouts.Inc()
		}
		r.cFaults.Inc()
		if r.rec.Enabled() {
			r.rec.Record(obs.Event{Kind: obs.KindExtractFault, Doc: int64(d.ID), Name: class, N: attempt})
		}
		r.breakerFailure(d)
		if attempt < r.opts.MaxAttempts {
			backoff := r.backoff(attempt)
			r.cRetries.Inc()
			if r.rec.Enabled() {
				r.rec.Record(obs.Event{Kind: obs.KindExtractRetry, Doc: int64(d.ID), N: attempt, Dur: backoff})
			}
			r.opts.Sleep(backoff)
		}
	}
	r.cPoisoned.Inc()
	return false, nil, fmt.Errorf("doc %d: %d attempts failed, last: %v: %w",
		d.ID, r.opts.MaxAttempts, lastErr, ErrDocPoisoned)
}

// errAttemptPanic marks an attempt error that originated as a panic.
var errAttemptPanic = errors.New("extractor panicked")

// attempt runs one labelling attempt with panic recovery and the
// per-attempt timeout.
func (r *Resilient) attempt(ctx context.Context, d *corpus.Document) (useful bool, tuples []relation.Tuple, err error) {
	if r.opts.AttemptTimeout <= 0 {
		return r.guarded(ctx, d)
	}
	actx, cancel := context.WithTimeout(ctx, r.opts.AttemptTimeout)
	defer cancel()
	type outcome struct {
		useful bool
		tuples []relation.Tuple
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		u, ts, err := r.guarded(actx, d)
		ch <- outcome{u, ts, err}
	}()
	select {
	case o := <-ch:
		// An attempt that failed because its own deadline fired reports
		// DeadlineExceeded, which LabelContext classifies as a timeout.
		return o.useful, o.tuples, o.err
	case <-actx.Done():
		// The attempt is still running: abandon it. If it ignores its
		// context it leaks a goroutine until it returns on its own.
		return false, nil, actx.Err()
	}
}

// guarded is one labelling call with panic recovery.
func (r *Resilient) guarded(ctx context.Context, d *corpus.Document) (useful bool, tuples []relation.Tuple, err error) {
	defer func() {
		if p := recover(); p != nil {
			useful, tuples = false, nil
			err = fmt.Errorf("doc %d: %w: %v", d.ID, errAttemptPanic, p)
		}
	}()
	return labelWithContext(ctx, r.inner, d)
}

// backoff computes the capped, jittered exponential delay after attempt.
func (r *Resilient) backoff(attempt int) time.Duration {
	d := r.opts.BaseBackoff << (attempt - 1)
	if d > r.opts.MaxBackoff || d <= 0 {
		d = r.opts.MaxBackoff
	}
	// ±50% jitter: [d/2, d), deterministic from jitterSeed.
	r.mu.Lock()
	j := r.rng.Int63n(int64(d)/2 + 1)
	r.mu.Unlock()
	return d/2 + time.Duration(j)
}

// breakerAllow reports whether a labelling call may proceed, advancing
// the open breaker toward its half-open probe.
func (r *Resilient) breakerAllow() bool {
	if r.opts.BreakerThreshold < 0 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case breakerClosed:
		return true
	case breakerOpen:
		r.openCalls++
		if r.openCalls >= r.opts.BreakerCooldown {
			r.state = breakerHalfOpen
			r.transitionLocked(obs.BreakerHalfOpen)
			return true // this call is the probe
		}
		return false
	default: // half-open: one probe in flight
		return false
	}
}

func (r *Resilient) breakerSuccess() {
	if r.opts.BreakerThreshold < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecFails = 0
	if r.state != breakerClosed {
		r.state = breakerClosed
		r.transitionLocked(obs.BreakerClosed)
	}
}

func (r *Resilient) breakerFailure(d *corpus.Document) {
	if r.opts.BreakerThreshold < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecFails++
	switch {
	case r.state == breakerHalfOpen:
		// Failed probe: straight back to open.
		r.state = breakerOpen
		r.openCalls = 0
		r.transitionLocked(obs.BreakerOpen)
	case r.state == breakerClosed && r.consecFails >= r.opts.BreakerThreshold:
		r.state = breakerOpen
		r.openCalls = 0
		r.cTrips.Inc()
		r.transitionLocked(obs.BreakerOpen)
	}
}

// transitionLocked publishes a breaker state change (mu held).
func (r *Resilient) transitionLocked(state string) {
	if r.rec.Enabled() {
		r.rec.Record(obs.Event{Kind: obs.KindBreaker, Name: state, N: r.consecFails})
	}
}

// BreakerState reports the current breaker state for tests and health
// endpoints: "closed", "open", or "half-open".
func (r *Resilient) BreakerState() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case breakerOpen:
		return obs.BreakerOpen
	case breakerHalfOpen:
		return obs.BreakerHalfOpen
	}
	return obs.BreakerClosed
}

// ExtractorOracle adapts a black-box extract.Extractor to the
// (Context)Oracle interfaces: the base of the live labelling chain.
// TotalUseful is unknown for live extraction, so recall-based metrics
// are skipped unless labels are precomputed.
type ExtractorOracle struct {
	Ex extract.Extractor
}

// Label implements Oracle.
func (o *ExtractorOracle) Label(d *corpus.Document) (bool, []relation.Tuple) {
	ts := o.Ex.Extract(d)
	return len(ts) > 0, ts
}

// LabelContext implements ContextOracle through the extractor's
// fault-aware path when it has one.
func (o *ExtractorOracle) LabelContext(ctx context.Context, d *corpus.Document) (bool, []relation.Tuple, error) {
	ts, err := extract.ExtractContext(ctx, o.Ex, d)
	if err != nil {
		return false, nil, err
	}
	return len(ts) > 0, ts, nil
}

// TotalUseful implements Oracle.
func (o *ExtractorOracle) TotalUseful() (int, bool) { return 0, false }
