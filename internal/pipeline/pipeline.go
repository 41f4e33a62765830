package pipeline

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/index"
	"adaptiverank/internal/metrics"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/explain"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/update"
	"adaptiverank/internal/vector"
)

// SearchIfaceOptions configures the search-interface access scenario: the
// pending pool starts from keyword-query retrieval instead of the full
// collection, and each model update issues the top model features as new
// queries to grow the pool (Section 4, Document Access).
type SearchIfaceOptions struct {
	// Index is the search interface over the full collection.
	Index *index.Index
	// InitialQueries seed the document pool.
	InitialQueries []string
}

// The search-interface scenario's query depths: each initial query
// retrieves its top searchRetrieveK documents, and after each update the
// model's top searchTopFeatures features (100 per the paper) become
// queries of depth searchPerFeatureK.
const (
	searchRetrieveK   = 300
	searchTopFeatures = 100
	searchPerFeatureK = 50
)

// requeueLimit caps how many times one document is requeued after a
// breaker-open fast-fail before it is skipped instead.
const requeueLimit = 3

// Options configures one pipeline execution.
type Options struct {
	// Rel is the extraction task.
	Rel relation.Relation
	// ExtractionCost overrides the simulated per-document extraction
	// cost (default: Rel.ExtractionCost()).
	ExtractionCost time.Duration
	// Coll is the document collection (the ranking pool in the
	// full-access scenario).
	Coll *corpus.Collection
	// Labels is the labelling oracle for Coll: precomputed Labels for
	// experiments (see LabelsFor), or a live extractor-backed oracle.
	Labels Oracle
	// Sample is the initial document sample (SRS or CQS); it is labelled
	// and used to train the initial model, and counts as processed.
	Sample []*corpus.Document
	// Strategy is the prioritization approach.
	Strategy Strategy
	// Detector, when non-nil, makes the run adaptive: buffered documents
	// are folded into the model whenever the detector fires.
	Detector update.Detector
	// Featurizer is the shared document featurizer (required when
	// Detector needs document features or Strategy is Learned).
	Featurizer *ranking.Featurizer
	// SearchIface switches to the search-interface access scenario.
	SearchIface *SearchIfaceOptions
	// MaxDocs stops the run after this many processed documents
	// (0 = process everything).
	MaxDocs int
	// Workers sets the number of goroutines used to score pending
	// documents during (re-)ranking (0 or 1 = sequential). Scores do not
	// depend on evaluation order, so the resulting ranking is identical
	// to the sequential one; each pending document is scored by exactly
	// one worker, which keeps the per-document caches race-free.
	Workers int
	// Metrics, when non-nil, receives the run's counters, gauges, and
	// latency histograms (see internal/obs). A nil registry costs the hot
	// path nothing beyond writes to shared no-op instruments.
	Metrics *obs.Registry
	// Recorder, when non-nil and enabled, receives the run's structured
	// event trace. The default is the no-op recorder, which keeps the
	// per-document path allocation-free.
	Recorder obs.Recorder
	// Explain, when non-nil, arms the model-introspection substrate: the
	// pipeline snapshots the model weight vector at train-init and every
	// train-update (weight-drift timeline) and attributes the scores of
	// the top-ranked documents after each (re-)ranking. Tee
	// Explain.Recorder() into Recorder to also persist detector decision
	// evidence. A nil Explain takes none of these paths, so a disabled
	// run is byte-identical to an uninstrumented one.
	Explain *explain.Explainer
	// Journal, when non-nil, makes the run crash-safe: every labelling
	// outcome is appended (and flushed) before the document affects the
	// model, and on resume journaled outcomes short-circuit extraction.
	// Because the rest of the pipeline is deterministic given the same
	// oracle answers, a resumed run reproduces the interrupted one
	// exactly; model snapshots recorded at each update verify that.
	Journal *Journal
}

// ChurnRecord reports the feature turnover of one model update.
type ChurnRecord struct {
	// Position is the number of processed documents at the update.
	Position int
	// Added and Removed count features entering/leaving the model's
	// non-zero support.
	Added, Removed int
	// Size is the model support size after the update.
	Size int
}

// Result is the outcome of one pipeline execution.
type Result struct {
	// Strategy names the approach.
	Strategy string
	// Order is the ranked-phase processing order. The initial sample is
	// processed (and costed) before the ranked phase but excluded from
	// Order and the quality metrics: at laptop scale the sample is a
	// much larger *fraction* of the collection than in the paper, and
	// including it would let the (strategy-independent) sample prefix
	// dominate AP/AUC. Metrics therefore measure how well each strategy
	// ranks the documents it actually gets to choose among.
	Order []corpus.DocID
	// OrderLabels are the usefulness labels along Order.
	OrderLabels []bool
	// SampleSize and SampleUseful describe the processed initial sample.
	SampleSize, SampleUseful int
	// Curve is the recall-vs-%processed curve (101 points).
	Curve []float64
	// AP and AUC are the ranking-quality metrics of Section 4.
	AP, AUC float64
	// Time is the CPU-time account (simulated extraction + measured
	// overheads).
	Time metrics.TimeAccount
	// UpdatePositions lists the processed-document counts at which model
	// updates happened.
	UpdatePositions []int
	// Churn records per-update feature turnover (learned strategies).
	Churn []ChurnRecord
	// PoolSize is the final pending-pool size (differs from len(Order)
	// in the search-interface scenario or with MaxDocs).
	PoolSize int
	// ScoredDocs counts individual document-scoring operations across all
	// (re-)rankings of the run: each rank pass scores the whole pending
	// pool once. It is deterministic for a given configuration and is the
	// denominator of the benchmark suite's ns/score metric.
	ScoredDocs int
	// Tuples are the distinct tuples discovered, in discovery order
	// (sample first, then the ranked phase).
	Tuples []relation.Tuple
	// Skipped lists documents abandoned by the resilience policy:
	// poisoned (every attempt failed) or over the requeue limit. They are
	// excluded from Order and the quality metrics.
	Skipped []corpus.DocID
	// Requeued counts breaker-open fast-fails that sent a document back
	// to the end of the pending pool.
	Requeued int
	// Interrupted reports that the run stopped early because its context
	// was cancelled (signal or timeout). The partial result — including
	// any journal written so far — is valid and resumable.
	Interrupted bool
	// DetectorObservations counts detector invocations, and
	// DetectorTime their total measured cost (Table 3).
	DetectorObservations int
	DetectorTime         time.Duration
}

// RecallAt evaluates the run's recall after processing pct% of the pool.
func (r *Result) RecallAt(pct float64) float64 { return metrics.RecallAt(r.Curve, pct) }

// Run executes the Figure 2 loop and returns the instrumented result.
func Run(opts Options) (*Result, error) {
	//lint:allow ctxflow compat shim: Run is the documented non-cancellable entry point
	return RunContext(context.Background(), opts)
}

// RunContext is Run with cancellation: when ctx is cancelled the loop
// drains gracefully — the in-flight document finishes (or aborts), the
// journal and trace stay flushed, and the partial result is returned
// with Interrupted set rather than an error, so callers can checkpoint
// what was done.
func RunContext(ctx context.Context, opts Options) (*Result, error) {
	if opts.Coll == nil || opts.Labels == nil || opts.Strategy == nil {
		return nil, fmt.Errorf("pipeline: Coll, Labels, and Strategy are required")
	}
	if ctx == nil {
		//lint:allow ctxflow nil-ctx guard: callers passing nil get the non-cancellable default
		ctx = context.Background()
	}
	if opts.ExtractionCost == 0 {
		opts.ExtractionCost = opts.Rel.ExtractionCost()
	}
	opts.Workers = max(opts.Workers, 1)

	r := newRun(ctx, opts)
	if !r.sample() {
		return r.finish(nil)
	}
	r.trainInit()
	r.primeDetector()
	r.buildPool()
	r.rank()
	// Batch spans group the documents processed between two consecutive
	// (re-)rankings; doc spans nest under them, giving the trace its
	// run -> batch -> doc causal spine.
	r.spBatch = r.tr.Start(obs.SpanBatch)
	var err error
	for err == nil && !r.res.Interrupted && r.cursor < len(r.pending) {
		if opts.MaxDocs > 0 && len(r.res.Order) >= opts.MaxDocs {
			break
		}
		if ctx.Err() != nil {
			r.res.Interrupted = true
			break
		}
		err = r.step()
	}
	r.spBatch.SetNum("docs", float64(r.batchDocs)).End()
	return r.finish(err)
}

// run is one execution of the Figure 2 loop: the state its phases share.
// Each phase is a method named after the span it opens.
type run struct {
	ctx  context.Context
	opts Options
	res  *Result

	// Observability. A nil registry hands out shared no-op instruments,
	// tr is nil (and its methods no-op) when the recorder is disabled,
	// and ex is nil on un-explained runs, so those runs take exactly the
	// uninstrumented code path.
	reg            *obs.Registry
	rec            obs.Recorder
	tr             *obs.Tracer
	ex             *explain.Explainer
	featName       func(int32) string
	spRun, spBatch *obs.Span
	cSample, cDocs, cUseful, cReranks, cUpdates, cFired, cSuppressed,
	cSkipped, cRequeued, cWorkerPanics *obs.Counter
	hRank, hUpdate, hDetect *obs.Histogram
	// Per-document strategy-observation (which includes popping the next
	// document) and detection times are flushed as aggregate phase events
	// at the end of the run, keeping the trace compact while preserving
	// the phase-sum identity with Result.Time.
	accObserve, accDetect time.Duration

	// The strategy's optional interfaces, resolved once (nil if absent),
	// and the model at the previous update: feature churn is
	// vector.Drift's Entered/Left between consecutive snapshots.
	model      Modeler
	batcher    BatchScorer
	attributor DocAttributor
	prevModel  *vector.Weights

	// initial is the labelled sample, duplicates included: they train
	// with their multiplicity but are counted and costed once. buffer
	// holds the documents processed since the last update.
	initial, buffer []LabeledDoc
	processed       map[corpus.DocID]bool
	requeues        map[corpus.DocID]int
	seenTuples      map[relation.Tuple]bool
	batchDocs       int
	useful          int // useful documents in Result.Order

	// pending[cursor:] is the pool still to process, in rank order as
	// far as it is ranked: a rank pass heapifies the pool's (score,
	// document) pairs and pops them into pending[ranked], one ahead of
	// the cursor. The len(heap) slots after ranked belong to the
	// unpopped documents; the requeued and retrieved documents follow.
	// grown marks a pool holding documents no rank pass has scored yet
	// (see rank). The score buffer and the heap are reused by rank.
	pending  []*corpus.Document
	cursor   int
	ranked   int
	grown    bool
	scoreBuf []float64
	heap     []rankEntry
}

// newRun attaches the run's instruments, recorder and tracer to the
// strategy, detector and oracle (e.g. a Resilient live one), so their
// spans and span-linked events nest under the pipeline's current scope,
// and records the run-started event.
func newRun(ctx context.Context, opts Options) *run {
	rec := opts.Recorder
	if rec == nil {
		rec = obs.Nop()
	}
	reg, tr := opts.Metrics, obs.NewTracer(rec)
	if reg != nil || rec.Enabled() {
		for _, c := range []any{opts.Strategy, opts.Detector, opts.Labels} {
			if in, ok := c.(obs.Instrumentable); ok {
				in.Instrument(reg, rec, tr)
			}
		}
	}
	r := &run{
		ctx: ctx, opts: opts, res: &Result{Strategy: opts.Strategy.Name()},
		reg: reg, rec: rec, tr: tr, ex: opts.Explain,

		cSample:       reg.Counter(obs.MetricPipelineSampleDocs),
		cDocs:         reg.Counter(obs.MetricPipelineDocsProcessed),
		cUseful:       reg.Counter(obs.MetricPipelineDocsUseful),
		cReranks:      reg.Counter(obs.MetricPipelineReranks),
		cUpdates:      reg.Counter(obs.MetricPipelineUpdates),
		cFired:        reg.Counter(obs.MetricPipelineDetectorFired),
		cSuppressed:   reg.Counter(obs.MetricPipelineDetectorSuppressed),
		cSkipped:      reg.Counter(obs.MetricPipelineDocsSkipped),
		cRequeued:     reg.Counter(obs.MetricPipelineDocsRequeued),
		cWorkerPanics: reg.Counter(obs.MetricPipelineWorkerPanics),
		hRank:         reg.Histogram(obs.MetricPipelineRankSeconds, nil),
		hUpdate:       reg.Histogram(obs.MetricPipelineUpdateSeconds, nil),
		hDetect:       reg.Histogram(obs.MetricPipelineDetectSeconds, nil),

		processed:  make(map[corpus.DocID]bool, opts.Coll.Len()),
		requeues:   make(map[corpus.DocID]int),
		seenTuples: make(map[relation.Tuple]bool),
		grown:      true,
	}
	r.model, _ = opts.Strategy.(Modeler)
	r.batcher, _ = opts.Strategy.(BatchScorer)
	r.attributor, _ = opts.Strategy.(DocAttributor)
	if r.ex != nil && opts.Featurizer != nil {
		r.featName = opts.Featurizer.FeatureName
	}
	// The run-started event carries the collection size and — when the
	// oracle knows it — the total useful count (Val), so post-hoc trace
	// analysis can reconstruct recall without the collection.
	ev := obs.Event{Kind: obs.KindRunStarted, Name: opts.Strategy.Name(), N: opts.Coll.Len()}
	if total, known := opts.Labels.TotalUseful(); known {
		ev.Val = float64(total)
	}
	rec.Record(ev)
	r.spRun = tr.Start(obs.SpanRun).SetAttr("strategy", opts.Strategy.Name()).
		SetNum("collection", float64(opts.Coll.Len()))
	return r
}

// record records ev when the recorder is enabled.
func (r *run) record(ev obs.Event) {
	if r.rec.Enabled() {
		r.rec.Record(ev)
	}
}

// outcome is how one labelling attempt ended.
type outcome int

const (
	outcomeOK outcome = iota
	outcomeSkip
	outcomeRequeue
	outcomeCancelled
)

// label is the single path every extraction outcome flows through:
// journal replay first, then the (possibly resilient) live oracle.
// Successful outcomes are journaled — and flushed — before they can
// affect the model, so a crash never loses acknowledged work. The reason
// names a skip.
func (r *run) label(d *corpus.Document) (ld LabeledDoc, out outcome, reason string) {
	ld.Doc = d
	if e, ok := r.opts.Journal.Lookup(d.ID); ok {
		if e.Skipped {
			return ld, outcomeSkip, e.Reason
		}
		ld.Useful, ld.Tuples = e.Useful, e.Tuples
		return ld, outcomeOK, ""
	}
	useful, tuples, err := labelWithContext(r.ctx, r.opts.Labels, d)
	switch {
	case err == nil:
		r.opts.Journal.RecordDoc(d.ID, useful, tuples)
		ld.Useful, ld.Tuples = useful, tuples
		return ld, outcomeOK, ""
	case r.ctx.Err() != nil:
		return ld, outcomeCancelled, ""
	case errors.Is(err, ErrBreakerOpen):
		return ld, outcomeRequeue, ""
	case errors.Is(err, ErrDocPoisoned):
		return ld, outcomeSkip, obs.ReasonPoisoned
	}
	return ld, outcomeSkip, obs.ReasonError
}

// collect appends the tuples not seen before to the result.
func (r *run) collect(tuples []relation.Tuple) {
	for _, t := range tuples {
		if !r.seenTuples[t] {
			r.seenTuples[t] = true
			r.res.Tuples = append(r.res.Tuples, t)
		}
	}
}

// skip marks a document processed and abandoned. The journal dedupes, so
// re-marking a journal-replayed skip is a no-op on disk.
func (r *run) skip(id corpus.DocID, reason string) {
	r.processed[id] = true
	r.opts.Journal.RecordSkip(id, reason)
	r.res.Skipped = append(r.res.Skipped, id)
	r.cSkipped.Inc()
	r.record(obs.Event{Kind: obs.KindDocSkipped, Doc: int64(id), Name: reason})
}

// features is the detector's view of a document.
func (r *run) features(d *corpus.Document) vector.Sparse {
	if r.opts.Featurizer == nil {
		return vector.Sparse{}
	}
	return r.opts.Featurizer.Features(d)
}

// sample labels the initial sample. It reports false when the run was
// cancelled during it.
func (r *run) sample() bool {
	sp := r.tr.Start(obs.SpanSample)
	res := r.res
	r.initial = make([]LabeledDoc, 0, len(r.opts.Sample))
	for _, d := range r.opts.Sample {
		ld, out, reason := r.label(d)
		switch out {
		case outcomeCancelled:
			res.Interrupted = true
			sp.SetNum("docs", float64(res.SampleSize)).End()
			return false
		case outcomeSkip, outcomeRequeue:
			// The sample is an unordered batch, so a breaker-open
			// fast-fail is a skip here too: there is no "later" position
			// to requeue to before initial training needs the doc.
			if out == outcomeRequeue {
				reason = obs.ReasonBreakerOpen
			}
			if !r.processed[d.ID] {
				r.skip(d.ID, reason)
			}
			continue
		}
		r.initial = append(r.initial, ld)
		if r.processed[d.ID] {
			continue
		}
		r.processed[d.ID] = true
		res.SampleSize++
		if ld.Useful {
			res.SampleUseful++
		}
		r.collect(ld.Tuples)
		res.Time.Extraction += r.opts.ExtractionCost
		r.cSample.Inc()
		r.record(obs.Event{Kind: obs.KindSampleLabelled, Doc: int64(d.ID),
			Useful: ld.Useful, Dur: r.opts.ExtractionCost})
	}
	sp.SetNum("docs", float64(res.SampleSize)).
		SetNum("useful", float64(res.SampleUseful)).End()
	return true
}

// trainInit trains the initial model on the labelled sample.
func (r *run) trainInit() {
	sp := r.tr.Start(obs.SpanTrainInit)
	t := time.Now()
	r.opts.Strategy.Init(r.initial)
	dur := time.Since(t)
	r.res.Time.Training += dur
	sp.SetNum("docs", float64(len(r.initial))).End()
	r.rec.Record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseInitTrain, N: len(r.initial), Dur: dur})
	r.explainSnapshot(explain.StageTrainInit, sp.ID(), 0, 0)
	if w := r.weights(); w != nil {
		r.prevModel = w.Clone()
	}
}

// primeDetector hands the labelled sample to a detector with a Prime
// method, with or without the labels.
func (r *run) primeDetector() {
	if r.opts.Detector == nil {
		return
	}
	sp := r.tr.Start(obs.SpanDetectorPrime)
	t := time.Now()
	lp, labeled := r.opts.Detector.(interface{ Prime([]vector.Sparse, []bool) })
	up, unlabeled := r.opts.Detector.(interface{ Prime([]vector.Sparse) })
	if labeled || unlabeled {
		xs := make([]vector.Sparse, len(r.initial))
		ys := make([]bool, len(r.initial))
		for i, ld := range r.initial {
			xs[i], ys[i] = r.features(ld.Doc), ld.Useful
		}
		if labeled {
			lp.Prime(xs, ys)
		} else {
			up.Prime(xs)
		}
	}
	dur := time.Since(t)
	r.res.Time.Detection += dur
	sp.SetNum("docs", float64(len(r.initial))).End()
	r.rec.Record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseDetectorPrime, N: len(r.initial), Dur: dur})
}

// buildPool fills the pending pool: the unprocessed collection, or in
// the search-interface scenario the unprocessed documents the initial
// queries retrieve, in id order.
func (r *run) buildPool() {
	si := r.opts.SearchIface
	if si == nil {
		for _, d := range r.opts.Coll.Docs() {
			if !r.processed[d.ID] {
				r.pending = append(r.pending, d)
			}
		}
		return
	}
	pool := make(map[corpus.DocID]bool)
	for _, q := range si.InitialQueries {
		for _, h := range si.Index.Search(q, searchRetrieveK) {
			pool[h.Doc] = true
		}
	}
	ids := make([]corpus.DocID, 0, len(pool))
	//lint:allow detrand collection order is erased by the sort below
	for id := range pool {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		if !r.processed[id] {
			r.pending = append(r.pending, r.opts.Coll.Doc(id))
		}
	}
}

// rank scores the pending pool, heapifies it by score and pops its first
// document. A pass over a grown pool (the first pass, and the pass after
// search-interface growth) runs on one goroutine, so it featurizes, and
// interns, the new documents in pending order and feature ids equal the
// one-worker ids; later passes find every document cached and fan out
// over the workers.
func (r *run) rank() {
	sp := r.tr.Start(obs.SpanRank)
	n := len(r.pending) - r.cursor
	r.record(obs.Event{Kind: obs.KindRankStarted, N: n})
	t := time.Now()
	// The unpopped documents go back into their slots, and the pool
	// becomes pending[cursor:].
	for i, e := range r.heap {
		r.pending[r.ranked+i] = e.doc
	}
	r.pending, r.cursor = r.pending[r.cursor:], 0
	if cap(r.scoreBuf) < n {
		r.scoreBuf = make([]float64, n)
	}
	out := r.scoreBuf[:n]
	clear(out) // a cancelled pass leaves the unscored documents at 0
	workers := r.opts.Workers
	if workers == 1 || r.grown || n < 256 {
		r.scoreRange(0, n, out)
	} else {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for lo := 0; lo < n; lo += chunk {
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				r.scoreRange(lo, hi, out)
			}(lo, min(lo+chunk, n))
		}
		wg.Wait()
	}
	r.grown = false
	r.res.ScoredDocs += n
	if cap(r.heap) < n {
		r.heap = make([]rankEntry, n)
	}
	r.heap, r.ranked = r.heap[:n], 0
	for i, d := range r.pending {
		r.heap[i] = rankEntry{out[i], d}
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(r.heap, i)
	}
	r.pop()
	dt := time.Since(t)
	r.res.Time.Ranking += dt
	r.cReranks.Inc()
	r.hRank.ObserveDuration(dt)
	sp.SetNum("pool", float64(n)).SetNum("workers", float64(workers)).End()
	r.record(obs.Event{Kind: obs.KindRankFinished, N: n, Dur: dt})
	r.attribute(sp.ID())
}

// scoreRange walks pending[lo:hi] in fixed sub-chunks so batch scoring,
// cancellation checks, and worker partitioning all share one shape: the
// values written to out depend only on the model state, never on chunk
// or worker boundaries (worker-count invariance).
func (r *run) scoreRange(lo, hi int, out []float64) {
	const scoreChunkSize = 256
	for a := lo; a < hi; a += scoreChunkSize {
		if r.ctx.Err() != nil {
			return // cancelled: the main loop exits right after
		}
		b := min(a+scoreChunkSize, hi)
		r.scoreChunk(r.pending[a:b], out[a:b])
	}
}

// scoreChunk scores one contiguous slice of pending documents into the
// matching out slice. Strategies with a batch fast path (BatchScorer)
// score the whole chunk through pooled buffers; a panic inside the batch
// path — or a strategy without one — falls back to per-document score,
// whose own recovery attributes the offending document. Both paths
// produce bitwise-identical scores (the BatchScorer contract), so chunk
// boundaries and fallbacks never change the ranking.
func (r *run) scoreChunk(docs []*corpus.Document, out []float64) {
	if r.batcher == nil || !r.scoreBatch(docs, out) {
		for i, d := range docs {
			out[i] = r.score(d)
		}
	}
}

// scoreBatch runs the batch fast path, reporting false when the strategy
// declines or panics.
func (r *run) scoreBatch(docs []*corpus.Document, out []float64) (ok bool) {
	defer func() {
		if p := recover(); p != nil {
			ok = false
			r.record(obs.Event{Kind: obs.KindWorkerPanic, Name: obs.PanicSiteScoreBatch})
		}
	}()
	return r.batcher.ScoreBatch(docs, out)
}

// score wraps Strategy.Score with panic recovery so one bad feature
// vector cannot take down a worker goroutine (which would crash the
// whole process): the document is attributed, counted, and ranked last
// instead.
func (r *run) score(d *corpus.Document) (s float64) {
	defer func() {
		if p := recover(); p != nil {
			s = math.Inf(-1)
			r.cWorkerPanics.Inc()
			r.record(obs.Event{Kind: obs.KindWorkerPanic, Doc: int64(d.ID), Name: obs.PanicSiteScore})
		}
	}()
	return r.opts.Strategy.Score(d)
}

// attribute decomposes the freshly top-ranked documents' scores into
// exact per-feature contributions. It pops them, so they stay next in
// line. It runs after the rank pass's timing account closes —
// attribution is introspection overhead, not ranking work — and re-uses
// the per-document feature cache the scoring pass just filled.
func (r *run) attribute(span int64) {
	if r.ex == nil || r.attributor == nil {
		return
	}
	top := min(r.ex.AttribTopN(), len(r.pending))
	for r.ranked < top {
		r.pop()
	}
	for i, d := range r.pending[:top] {
		a, ok := r.attributor.Attribute(d)
		if !ok {
			return
		}
		r.ex.RecordAttribution(explain.Record{
			Doc: int64(d.ID), Rank: i,
			Span: span, Pos: len(r.res.Order),
			Score: a.Score, Logistic: a.Logistic,
			Members: explainMembers(a, r.featName),
		})
	}
}

// step processes the next pending document: label it, record it, let
// the strategy and the detector observe it, update the model when the
// detector fires, and re-rank the rest of the pool when the model or the
// strategy's own scores changed. Its error is update's.
func (r *run) step() error {
	res := r.res
	if r.cursor == r.ranked {
		r.pop() // the last step requeued, skipped or met a duplicate
	}
	d := r.pending[r.cursor]
	r.cursor++
	if r.processed[d.ID] {
		return nil // duplicates can enter via search-interface growth
	}

	// Tuple extraction (simulated cost for precomputed oracles; real
	// extraction work for live oracles). A document is marked processed
	// only at a final outcome — success or skip — so a breaker-open
	// requeue can re-enter it later.
	ld, out, reason := r.label(d)
	switch out {
	case outcomeCancelled:
		res.Interrupted = true
		return nil
	case outcomeRequeue:
		r.requeues[d.ID]++
		res.Requeued++
		r.cRequeued.Inc()
		r.record(obs.Event{Kind: obs.KindDocRequeued, Doc: int64(d.ID), N: r.requeues[d.ID]})
		if r.requeues[d.ID] > requeueLimit {
			r.skip(d.ID, obs.ReasonRequeueLimit)
		} else {
			r.pending = append(r.pending, d)
		}
		return nil
	case outcomeSkip:
		r.skip(d.ID, reason)
		return nil
	}
	r.processed[d.ID] = true
	sp := r.tr.Start(obs.SpanDoc)
	r.batchDocs++
	r.collect(ld.Tuples)
	res.Order = append(res.Order, d.ID)
	res.OrderLabels = append(res.OrderLabels, ld.Useful)
	res.Time.Extraction += r.opts.ExtractionCost
	r.buffer = append(r.buffer, ld)
	r.cDocs.Inc()
	sp.SetNum("doc", float64(d.ID)).SetNum("cost_ns", float64(r.opts.ExtractionCost))
	if ld.Useful {
		r.useful++
		r.cUseful.Inc()
		sp.SetAttr("useful", "true")
	}
	r.record(obs.Event{Kind: obs.KindDocExtracted, Doc: int64(d.ID),
		Useful: ld.Useful, Dur: r.opts.ExtractionCost, Span: sp.ID()})

	// Keep the explain logical clock on the ranked-phase position, so
	// detector decision records made below carry the position they were
	// decided at.
	r.ex.Advance(len(res.Order))

	// Strategy self-observation (A-FC re-ranks continuously), and the pop
	// of the next document: both are ranking work.
	t := time.Now()
	selfRerank := r.opts.Strategy.Observe(ld)
	if r.cursor == r.ranked {
		r.pop()
	}
	od := time.Since(t)
	res.Time.Ranking += od
	r.accObserve += od

	trigger := r.detect(ld)
	var err error
	if trigger {
		err = r.update()
	}
	sp.End()
	if err == nil && (trigger || selfRerank) {
		r.spBatch.SetNum("docs", float64(r.batchDocs)).End()
		r.rank()
		r.spBatch = r.tr.Start(obs.SpanBatch)
		r.batchDocs = 0
	}
	return err
}

// detect shows the document to the update detector and reports whether
// it fired.
func (r *run) detect(ld LabeledDoc) bool {
	if r.opts.Detector == nil {
		return false
	}
	sp := r.tr.Start(obs.SpanDetect)
	t := time.Now()
	fired := r.opts.Detector.Observe(r.features(ld.Doc), ld.Useful)
	dt := time.Since(t)
	sp.End()
	r.res.Time.Detection += dt
	r.res.DetectorTime += dt
	r.res.DetectorObservations++
	r.accDetect += dt
	r.hDetect.ObserveDuration(dt)
	if fired {
		r.cFired.Inc()
	} else {
		r.cSuppressed.Inc()
	}
	return fired
}

// update folds the buffered documents into the model (online — no
// retraining from scratch), then records the feature churn, snapshots
// the model for the explain log, checks the journal snapshot and, in the
// search-interface scenario, grows the pool. It fails only when a
// resumed run's model diverges from its journal.
func (r *run) update() error {
	res := r.res
	bufN := len(r.buffer)
	r.record(obs.Event{Kind: obs.KindDetectorFired, Name: r.opts.Detector.Name(), N: bufN})
	sp := r.tr.Start(obs.SpanTrainUpdate)
	t := time.Now()
	r.opts.Strategy.Update(r.buffer)
	dur := time.Since(t)
	sp.SetNum("buffered", float64(bufN)).End()
	res.Time.Training += dur
	r.cUpdates.Inc()
	r.hUpdate.ObserveDuration(dur)
	r.buffer = r.buffer[:0]
	res.UpdatePositions = append(res.UpdatePositions, len(res.Order))
	r.opts.Detector.Reset()

	ev := obs.Event{Kind: obs.KindModelUpdated, N: bufN, Dur: dur}
	if w := r.weights(); w != nil {
		cur := w.Clone()
		d, size := vector.Drift(r.prevModel, cur), cur.NNZ()
		ev.Added, ev.Removed, ev.Val = d.Entered, d.Left, float64(size)
		res.Churn = append(res.Churn,
			ChurnRecord{Position: len(res.Order), Added: d.Entered, Removed: d.Left, Size: size})
		r.prevModel = cur
		r.reg.Gauge(obs.MetricPipelineModelSupport).Set(float64(size))
		r.reg.Counter(obs.MetricPipelineFeaturesAdded).Add(int64(d.Entered))
		r.reg.Counter(obs.MetricPipelineFeaturesRemoved).Add(int64(d.Left))
	}
	r.record(ev)
	r.explainSnapshot(explain.StageTrainUpdate, sp.ID(), ev.Added, ev.Removed)

	// Journal a model snapshot at this update position; on resume this
	// verifies (rather than re-records) and stops the run on divergence
	// instead of silently producing different results.
	if r.opts.Journal != nil {
		if nnz, sum, ok := r.modelHash(); ok {
			if err := r.opts.Journal.CheckSnapshot(len(res.Order), nnz, sum); err != nil {
				return fmt.Errorf("pipeline: resume diverged from journal: %w", err)
			}
		}
	}

	// Search-interface scenario: issue the top model features as fresh
	// queries and grow the pool.
	if r.opts.SearchIface != nil {
		more := r.retrieveByTopFeatures()
		r.pending = append(r.pending, more...)
		r.grown = r.grown || len(more) > 0
	}
	return nil
}

// finish closes the run on every exit path — completion, MaxDocs,
// cancellation, a resume divergence — so partial results are always
// fully accounted: it computes the quality metrics, flushes the
// aggregate phase events, and closes the trace. It returns the result
// with err, else with a failed journal write, else, for a completed
// resume, with the journal snapshots the replay never reached.
func (r *run) finish(err error) (*Result, error) {
	res := r.res
	res.PoolSize = len(res.Order) + (len(r.pending) - r.cursor)
	if total, known := r.opts.Labels.TotalUseful(); known && !res.Interrupted {
		res.Curve = metrics.RankedRecallCurve(res.OrderLabels, total, res.SampleUseful)
		if total <= res.SampleUseful {
			// Degenerate corner: the sample already covered every useful
			// document; any order of the (useless) rest is perfect.
			res.AP, res.AUC = 1, 0.5
		} else {
			res.AP = metrics.AveragePrecision(res.OrderLabels)
			res.AUC = metrics.AUC(res.OrderLabels)
		}
	}
	r.reg.Gauge(obs.MetricPipelinePoolSize).Set(float64(res.PoolSize))
	res.Time.Record(r.reg)
	if r.accObserve > 0 {
		r.record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseStrategyObserve, Dur: r.accObserve})
	}
	if r.accDetect > 0 {
		r.record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseDetection, Dur: r.accDetect})
	}
	if j := r.opts.Journal; j != nil {
		r.record(obs.Event{Kind: obs.KindCheckpoint, Name: j.Path(), N: j.Entries()})
	}
	sp := r.spRun.SetNum("docs", float64(len(res.Order))).SetNum("useful", float64(r.useful))
	if res.Interrupted {
		sp.SetAttr("interrupted", "true")
	}
	sp.End()
	r.record(obs.Event{Kind: obs.KindRunFinished, N: len(res.Order), Dur: res.Time.Total()})
	if err != nil {
		return res, err
	}
	if err := r.opts.Journal.Err(); err != nil {
		return res, fmt.Errorf("pipeline: journal write failed: %w", err)
	}
	// A completed resume must have reproduced every journaled model
	// snapshot it passed; skipping one means the replay updated its
	// model at different positions than the interrupted run.
	if !res.Interrupted {
		if ps := r.opts.Journal.UncheckedSnapshots(len(res.Order)); len(ps) > 0 {
			return res, fmt.Errorf("%w: journal snapshots at positions %v never reproduced",
				ErrResumeDiverged, ps)
		}
	}
	return res, nil
}

// weights is the strategy's linear model, nil for strategies without
// one.
func (r *run) weights() *vector.Weights {
	if r.model == nil {
		return nil
	}
	return r.model.Model()
}

// explainSnapshot records the model in the explain log.
func (r *run) explainSnapshot(stage string, span int64, added, removed int) {
	if r.ex != nil {
		r.ex.RecordSnapshot(stage, span, len(r.res.Order), r.weights(), r.featName, added, removed)
	}
}

// modelHash is an order-independent fingerprint of the model weights
// (XOR-combined per-feature hashes). Snapshots recorded in the journal at
// each update verify that a resumed run's model evolves identically to
// the original.
func (r *run) modelHash() (nnz int, sum uint64, ok bool) {
	w := r.weights()
	if w == nil {
		return 0, 0, false
	}
	w.Range(func(i int32, v float64) {
		h := uint64(i)*0x9e3779b97f4a7c15 ^ math.Float64bits(v)
		// splitmix64 finalizer: decorrelate before XOR-combining.
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
		sum ^= h
	})
	return w.NNZ(), sum, true
}

// retrieveByTopFeatures turns the strategy's strongest positive model
// features into keyword queries and returns the unseen retrieved
// documents.
func (r *run) retrieveByTopFeatures() []*corpus.Document {
	w, si := r.weights(), r.opts.SearchIface
	if w == nil || r.opts.Featurizer == nil {
		return nil
	}
	var out []*corpus.Document
	seen := make(map[corpus.DocID]bool)
	for _, f := range w.TopK(searchTopFeatures) {
		if f.Weight <= 0 {
			continue
		}
		term := strings.TrimPrefix(r.opts.Featurizer.FeatureName(f.Index), "w=")
		for _, h := range si.Index.Search(term, searchPerFeatureK) {
			if !r.processed[h.Doc] && !seen[h.Doc] {
				seen[h.Doc] = true
				out = append(out, r.opts.Coll.Doc(h.Doc))
			}
		}
	}
	return out
}

// rankEntry pairs a pending document with its score in one rank pass;
// the pass's heap holds the entries not popped yet. Entries rank by
// score descending, then document id ascending. A NaN score ranks after
// every other score, −Inf (a panicked document's score) included, and
// NaNs order among themselves by id. The order is total (a document
// repeated in a pass is the same *Document with the same score), so the
// heap pops a pass in the order a sort of its entries would give.
type rankEntry struct {
	score float64
	doc   *corpus.Document
}

// pop moves the first document of the heap into pending[ranked].
func (r *run) pop() {
	h := r.heap
	if len(h) == 0 {
		return
	}
	r.pending[r.ranked] = h[0].doc
	r.ranked++
	h[0] = h[len(h)-1]
	r.heap = h[:len(h)-1]
	siftDown(r.heap, 0)
}

// siftDown moves h[i] down the heap until no child ranks ahead of it.
func siftDown(h []rankEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && ahead(h[c+1], h[c]) {
			c++
		}
		if !ahead(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// ahead reports whether a ranks before b. Every comparison with NaN is
// false, so only a NaN or an equal pair reaches the NaN test.
func ahead(a, b rankEntry) bool {
	if a.score > b.score {
		return true
	}
	if a.score < b.score {
		return false
	}
	if an, bn := math.IsNaN(a.score), math.IsNaN(b.score); an != bn {
		return bn
	}
	return a.doc.ID < b.doc.ID
}

// explainMembers converts a ranking attribution into explain log
// members, resolving feature indices to names. Contribution order — and
// therefore the bitwise score-reconstruction contract — is preserved.
func explainMembers(a ranking.Attribution, name func(int32) string) []explain.Member {
	out := make([]explain.Member, len(a.Members))
	for i, m := range a.Members {
		em := explain.Member{Bias: m.Bias, Margin: m.Margin}
		if len(m.Contribs) > 0 {
			em.Contribs = make([]explain.Feature, len(m.Contribs))
			for j, c := range m.Contribs {
				em.Contribs[j] = explain.Feature{Index: c.Index, Weight: c.Value}
				if name != nil {
					em.Contribs[j].Name = name(c.Index)
				}
			}
		}
		out[i] = em
	}
	return out
}
