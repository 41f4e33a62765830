package pipeline

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
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
	// RetrieveK is the per-query result depth (default 300).
	RetrieveK int
	// TopFeatures is how many top model features become queries after
	// each update (default 100 per the paper).
	TopFeatures int
	// PerFeatureK is the result depth per feature query (default 50).
	PerFeatureK int
}

func (o *SearchIfaceOptions) defaults() {
	if o.RetrieveK == 0 {
		o.RetrieveK = 300
	}
	if o.TopFeatures == 0 {
		o.TopFeatures = 100
	}
	if o.PerFeatureK == 0 {
		o.PerFeatureK = 50
	}
}

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
	// RequeueLimit caps how many times one document is requeued after a
	// breaker-open fast-fail before it is skipped instead (default 3).
	RequeueLimit int
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

// primer interfaces let detectors consume the initial sample.
type labeledPrimer interface {
	Prime(xs []vector.Sparse, useful []bool)
}

type unlabeledPrimer interface {
	Prime(xs []vector.Sparse)
}

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
	if opts.SearchIface != nil {
		opts.SearchIface.defaults()
	}
	if opts.RequeueLimit <= 0 {
		opts.RequeueLimit = 3
	}
	res := &Result{Strategy: opts.Strategy.Name()}
	if opts.ExtractionCost == 0 {
		opts.ExtractionCost = opts.Rel.ExtractionCost()
	}

	// --- Observability setup -----------------------------------------
	// A nil registry hands out shared no-op instruments and the no-op
	// recorder reports Enabled() == false, so the un-instrumented path
	// stays allocation-free.
	reg := opts.Metrics
	rec := opts.Recorder
	if rec == nil {
		rec = obs.Nop()
	}
	if reg != nil || rec.Enabled() {
		if in, ok := opts.Strategy.(obs.Instrumentable); ok {
			in.Instrument(reg, rec)
		}
		if in, ok := opts.Detector.(obs.Instrumentable); ok {
			in.Instrument(reg, rec)
		}
		if in, ok := opts.Labels.(obs.Instrumentable); ok {
			in.Instrument(reg, rec) // e.g. a Resilient live-extraction oracle
		}
	}
	// Span tracing: tr is nil when the recorder is disabled, and every
	// tracer/span method no-ops (and allocates nothing) on nil, so the
	// span plumbing below costs the untraced hot path nothing. The same
	// tracer is handed to the strategy and detector so their spans and
	// span-linked events nest under the pipeline's current scope.
	tr := obs.NewTracer(rec)
	if tr.Enabled() {
		if in, ok := opts.Strategy.(obs.TraceInstrumentable); ok {
			in.InstrumentTracer(tr)
		}
		if in, ok := opts.Detector.(obs.TraceInstrumentable); ok {
			in.InstrumentTracer(tr)
		}
	}
	// Model introspection (internal/obs/explain): ex is nil on
	// un-explained runs, and every capture path below is gated on it, so
	// a disabled run takes exactly the uninstrumented code path (the
	// byte-identity tests at the root pin this down).
	ex := opts.Explain
	var featName func(int32) string
	if ex != nil && opts.Featurizer != nil {
		featName = opts.Featurizer.FeatureName
	}
	explainSnapshot := func(stage string, span int64, added, removed int) {
		if ex == nil {
			return
		}
		m, ok := opts.Strategy.(Modeler)
		if !ok {
			return
		}
		ex.RecordSnapshot(stage, span, len(res.Order), m.Model(), featName, added, removed)
	}
	var (
		cSample     = reg.Counter(obs.MetricPipelineSampleDocs)
		cDocs       = reg.Counter(obs.MetricPipelineDocsProcessed)
		cUseful     = reg.Counter(obs.MetricPipelineDocsUseful)
		cReranks    = reg.Counter(obs.MetricPipelineReranks)
		cUpdates    = reg.Counter(obs.MetricPipelineUpdates)
		cFired      = reg.Counter(obs.MetricPipelineDetectorFired)
		cSuppressed = reg.Counter(obs.MetricPipelineDetectorSuppressed)
		hRank       = reg.Histogram(obs.MetricPipelineRankSeconds, nil)
		hUpdate     = reg.Histogram(obs.MetricPipelineUpdateSeconds, nil)
		hDetect     = reg.Histogram(obs.MetricPipelineDetectSeconds, nil)
	)
	// Per-document strategy-observation and detection times are flushed
	// as aggregate phase events at the end of the run, keeping the trace
	// compact while preserving the phase-sum identity with Result.Time.
	var accObserve, accDetect time.Duration
	// The run-started event carries the collection size and — when the
	// oracle knows it — the total useful count (Val), so post-hoc trace
	// analysis can reconstruct recall without the collection.
	startEv := obs.Event{Kind: obs.KindRunStarted, Name: opts.Strategy.Name(), N: opts.Coll.Len()}
	if total, known := opts.Labels.TotalUseful(); known {
		startEv.Val = float64(total)
	}
	rec.Record(startEv)
	spRun := tr.Start(obs.SpanRun).SetAttr("strategy", opts.Strategy.Name()).
		SetNum("collection", float64(opts.Coll.Len()))

	// pending/cursor are declared ahead of the epilogue closure so an
	// interrupted run can share the same exit path as a completed one.
	var pending []*corpus.Document
	cursor := 0

	// epilogue computes the quality metrics, flushes the aggregate phase
	// events, and closes the trace. Every exit path — completion,
	// MaxDocs, cancellation — funnels through it so partial results are
	// always fully accounted.
	epilogue := func() (*Result, error) {
		res.PoolSize = len(res.Order) + (len(pending) - cursor)
		if total, known := opts.Labels.TotalUseful(); known && !res.Interrupted {
			if denom := total - res.SampleUseful; denom <= 0 {
				// Degenerate corner: the sample already covered every useful
				// document; any order of the (useless) rest is perfect.
				res.Curve = make([]float64, 101)
				for i := range res.Curve {
					res.Curve[i] = 1
				}
				res.AP, res.AUC = 1, 0.5
			} else {
				res.Curve = metrics.RecallCurve(res.OrderLabels, denom)
				res.AP = metrics.AveragePrecision(res.OrderLabels)
				res.AUC = metrics.AUC(res.OrderLabels)
			}
		}
		reg.Gauge(obs.MetricPipelinePoolSize).Set(float64(res.PoolSize))
		res.Time.Record(reg)
		if rec.Enabled() {
			if accObserve > 0 {
				rec.Record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseStrategyObserve, Dur: accObserve})
			}
			if accDetect > 0 {
				rec.Record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseDetection, Dur: accDetect})
			}
			if opts.Journal != nil {
				rec.Record(obs.Event{Kind: obs.KindCheckpoint,
					Name: opts.Journal.Path(), N: opts.Journal.Entries()})
			}
			nUseful := 0
			for _, u := range res.OrderLabels {
				if u {
					nUseful++
				}
			}
			sp := spRun.SetNum("docs", float64(len(res.Order))).
				SetNum("useful", float64(nUseful))
			if res.Interrupted {
				sp.SetAttr("interrupted", "true")
			}
			sp.End()
			rec.Record(obs.Event{Kind: obs.KindRunFinished, N: len(res.Order), Dur: res.Time.Total()})
		}
		if err := opts.Journal.Err(); err != nil {
			return res, fmt.Errorf("pipeline: journal write failed: %w", err)
		}
		// A completed resume must have reproduced every journaled model
		// snapshot it passed; skipping one means the replay updated its
		// model at different positions than the interrupted run.
		if !res.Interrupted {
			if ps := opts.Journal.UncheckedSnapshots(len(res.Order)); len(ps) > 0 {
				return res, fmt.Errorf("%w: journal snapshots at positions %v never reproduced",
					ErrResumeDiverged, ps)
			}
		}
		return res, nil
	}

	// --- Fault-tolerant labelling -------------------------------------
	// labelDoc is the single path every extraction outcome flows through:
	// journal replay first, then the (possibly resilient) live oracle.
	// Successful outcomes are journaled — and flushed — before they can
	// affect the model, so a crash never loses acknowledged work.
	const (
		outcomeOK = iota
		outcomeSkip
		outcomeRequeue
		outcomeCancelled
	)
	cSkipped := reg.Counter(obs.MetricPipelineDocsSkipped)
	cRequeued := reg.Counter(obs.MetricPipelineDocsRequeued)
	seenTuples := make(map[relation.Tuple]bool)
	collect := func(tuples []relation.Tuple) {
		for _, t := range tuples {
			if !seenTuples[t] {
				seenTuples[t] = true
				res.Tuples = append(res.Tuples, t)
			}
		}
	}
	markSkipped := func(id corpus.DocID, reason string) {
		// RecordSkip dedupes, so re-marking a journal-replayed skip is a
		// no-op on disk.
		opts.Journal.RecordSkip(id, reason)
		res.Skipped = append(res.Skipped, id)
		cSkipped.Inc()
		if rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.KindDocSkipped, Doc: int64(id), Name: reason})
		}
	}
	labelDoc := func(d *corpus.Document) (LabeledDoc, int, string) {
		if e, ok := opts.Journal.Lookup(d.ID); ok {
			if e.Skipped {
				return LabeledDoc{Doc: d}, outcomeSkip, e.Reason
			}
			return LabeledDoc{Doc: d, Useful: e.Useful, Tuples: e.Tuples}, outcomeOK, ""
		}
		useful, tuples, err := labelWithContext(ctx, opts.Labels, d)
		if err == nil {
			opts.Journal.RecordDoc(d.ID, useful, tuples)
			return LabeledDoc{Doc: d, Useful: useful, Tuples: tuples}, outcomeOK, ""
		}
		if ctx.Err() != nil {
			return LabeledDoc{Doc: d}, outcomeCancelled, ""
		}
		if errors.Is(err, ErrBreakerOpen) {
			return LabeledDoc{Doc: d}, outcomeRequeue, ""
		}
		reason := obs.ReasonPoisoned
		if !errors.Is(err, ErrDocPoisoned) {
			reason = obs.ReasonError
		}
		return LabeledDoc{Doc: d}, outcomeSkip, reason
	}

	// --- Initial sampling & labelling -------------------------------
	spSample := tr.Start(obs.SpanSample)
	sample := make([]LabeledDoc, 0, len(opts.Sample))
	processed := make(map[corpus.DocID]bool, opts.Coll.Len())
	for _, d := range opts.Sample {
		ld, outcome, reason := labelDoc(d)
		switch outcome {
		case outcomeCancelled:
			res.Interrupted = true
			spSample.SetNum("docs", float64(res.SampleSize)).End()
			return epilogue()
		case outcomeSkip, outcomeRequeue:
			// The sample is an unordered batch, so a breaker-open
			// fast-fail is a skip here too: there is no "later" position
			// to requeue to before initial training needs the doc.
			if outcome == outcomeRequeue {
				reason = obs.ReasonBreakerOpen
			}
			if !processed[d.ID] {
				processed[d.ID] = true
				markSkipped(d.ID, reason)
			}
			continue
		}
		// Duplicates (sampling with replacement) train with their
		// multiplicity but are counted and costed once.
		sample = append(sample, ld)
		if processed[d.ID] {
			continue
		}
		processed[d.ID] = true
		res.SampleSize++
		if ld.Useful {
			res.SampleUseful++
		}
		collect(ld.Tuples)
		res.Time.Extraction += opts.ExtractionCost
		cSample.Inc()
		if rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.KindSampleLabelled, Doc: int64(d.ID),
				Useful: ld.Useful, Dur: opts.ExtractionCost})
		}
	}

	spSample.SetNum("docs", float64(res.SampleSize)).
		SetNum("useful", float64(res.SampleUseful)).End()

	// --- Ranking generation ------------------------------------------
	spInit := tr.Start(obs.SpanTrainInit)
	t0 := time.Now()
	opts.Strategy.Init(sample)
	initDur := time.Since(t0)
	res.Time.Training += initDur
	spInit.SetNum("docs", float64(len(sample))).End()
	rec.Record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseInitTrain, N: len(sample), Dur: initDur})
	explainSnapshot(explain.StageTrainInit, spInit.ID(), 0, 0)

	feats := func(d *corpus.Document) vector.Sparse {
		if opts.Featurizer == nil {
			return vector.Sparse{}
		}
		return opts.Featurizer.Features(d)
	}
	if opts.Detector != nil {
		spPrime := tr.Start(obs.SpanDetectorPrime)
		t0 = time.Now()
		switch p := opts.Detector.(type) {
		case labeledPrimer:
			xs := make([]vector.Sparse, len(sample))
			ys := make([]bool, len(sample))
			for i, ld := range sample {
				xs[i] = feats(ld.Doc)
				ys[i] = ld.Useful
			}
			p.Prime(xs, ys)
		case unlabeledPrimer:
			xs := make([]vector.Sparse, len(sample))
			for i, ld := range sample {
				xs[i] = feats(ld.Doc)
			}
			p.Prime(xs)
		}
		primeDur := time.Since(t0)
		res.Time.Detection += primeDur
		spPrime.SetNum("docs", float64(len(sample))).End()
		rec.Record(obs.Event{Kind: obs.KindPhase, Name: obs.PhaseDetectorPrime, N: len(sample), Dur: primeDur})
	}

	// --- Build the pending pool --------------------------------------
	if opts.SearchIface == nil {
		for _, d := range opts.Coll.Docs() {
			if !processed[d.ID] {
				pending = append(pending, d)
			}
		}
	} else {
		pool := make(map[corpus.DocID]bool)
		for _, q := range opts.SearchIface.InitialQueries {
			for _, h := range opts.SearchIface.Index.Search(q, opts.SearchIface.RetrieveK) {
				pool[h.Doc] = true
			}
		}
		ids := make([]corpus.DocID, 0, len(pool))
		//lint:allow detrand collection order is erased by the sort below
		for id := range pool {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			if !processed[id] {
				pending = append(pending, opts.Coll.Doc(id))
			}
		}
	}

	// --- Initial ranking ----------------------------------------------
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	// score wraps Strategy.Score with panic recovery so one bad feature
	// vector cannot take down a worker goroutine (which would crash the
	// whole process): the document is attributed, counted, and ranked
	// last instead.
	cWorkerPanics := reg.Counter(obs.MetricPipelineWorkerPanics)
	score := func(d *corpus.Document) (s float64) {
		defer func() {
			if p := recover(); p != nil {
				s = math.Inf(-1)
				cWorkerPanics.Inc()
				if rec.Enabled() {
					rec.Record(obs.Event{Kind: obs.KindWorkerPanic,
						Doc: int64(d.ID), Name: obs.PanicSiteScore})
				}
			}
		}()
		return opts.Strategy.Score(d)
	}
	// scoreChunk scores one contiguous slice of pending documents into the
	// matching out slice. Strategies with a batch fast path (BatchScorer)
	// score the whole chunk through pooled buffers; a panic inside the
	// batch path — or a strategy without one — falls back to per-document
	// score, whose own recovery attributes the offending document. Both
	// paths produce bitwise-identical scores (the BatchScorer contract),
	// so chunk boundaries and fallbacks never change the ranking.
	batcher, _ := opts.Strategy.(BatchScorer)
	scoreChunk := func(docs []*corpus.Document, out []float64) {
		if batcher != nil {
			ok := func() (ok bool) {
				defer func() {
					if p := recover(); p != nil {
						ok = false
						if rec.Enabled() {
							rec.Record(obs.Event{Kind: obs.KindWorkerPanic,
								Name: obs.PanicSiteScoreBatch})
						}
					}
				}()
				return batcher.ScoreBatch(docs, out)
			}()
			if ok {
				return
			}
		}
		for i, d := range docs {
			out[i] = score(d)
		}
	}
	// scoreRange walks [lo, hi) in fixed sub-chunks so batch scoring,
	// cancellation checks, and worker partitioning all share one shape:
	// the values written to out depend only on the model state, never on
	// chunk or worker boundaries (worker-count invariance).
	const scoreChunkSize = 256
	scoreRange := func(lo, hi int, out []float64) {
		for a := lo; a < hi; a += scoreChunkSize {
			if ctx.Err() != nil {
				return // cancelled: the main loop exits right after
			}
			b := a + scoreChunkSize
			if b > hi {
				b = hi
			}
			scoreChunk(pending[a:b], out[a:b])
		}
	}
	// The score buffer and the (score, document) pairs are reused across
	// rank passes.
	var scoreBuf []float64
	var pairs []rankEntry
	rank := func() {
		spRank := tr.Start(obs.SpanRank)
		if rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.KindRankStarted, N: len(pending)})
		}
		t := time.Now()
		if cap(scoreBuf) < len(pending) {
			scoreBuf = make([]float64, len(pending))
		}
		out := scoreBuf[:len(pending)]
		clear(out) // a cancelled pass leaves the unscored documents at 0
		if workers == 1 || len(pending) < 256 {
			scoreRange(0, len(pending), out)
		} else {
			var wg sync.WaitGroup
			chunk := (len(pending) + workers - 1) / workers
			for w := 0; w < workers; w++ {
				lo := w * chunk
				hi := lo + chunk
				if hi > len(pending) {
					hi = len(pending)
				}
				if lo >= hi {
					break
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					scoreRange(lo, hi, out)
				}(lo, hi)
			}
			wg.Wait()
		}
		res.ScoredDocs += len(pending)
		pairs = rankOrder(pending, out, pairs)
		dt := time.Since(t)
		res.Time.Ranking += dt
		cReranks.Inc()
		hRank.ObserveDuration(dt)
		spRank.SetNum("pool", float64(len(pending))).SetNum("workers", float64(workers)).End()
		if rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.KindRankFinished, N: len(pending), Dur: dt})
		}
		// Score attribution: decompose the freshly top-ranked documents'
		// scores into exact per-feature contributions. This happens after
		// the timing account closes — attribution is introspection
		// overhead, not ranking work — and re-uses the per-document
		// feature cache the scoring pass just filled.
		if ex != nil {
			if da, ok := opts.Strategy.(DocAttributor); ok {
				n := ex.AttribTopN()
				if n > len(pending) {
					n = len(pending)
				}
				for i := 0; i < n; i++ {
					d := pending[i]
					a, ok := da.Attribute(d)
					if !ok {
						break
					}
					ex.RecordAttribution(explain.Record{
						Doc: int64(d.ID), Rank: i,
						Span: spRank.ID(), Pos: len(res.Order),
						Score: a.Score, Logistic: a.Logistic,
						Members: explainMembers(a, featName),
					})
				}
			}
		}
	}
	rank()

	// modelSnapshot copies the model weights (nil for strategies without
	// a linear model); feature churn at each update is vector.Drift's
	// Entered/Left between consecutive snapshots.
	modelSnapshot := func() *vector.Weights {
		m, ok := opts.Strategy.(Modeler)
		if !ok {
			return nil
		}
		if w := m.Model(); w != nil {
			return w.Clone()
		}
		return nil
	}
	prevModel := modelSnapshot()

	// modelHash is an order-independent fingerprint of the model weights
	// (XOR-combined per-feature hashes). Snapshots recorded in the
	// journal at each update verify that a resumed run's model evolves
	// identically to the original.
	modelHash := func() (nnz int, sum uint64, ok bool) {
		m, k := opts.Strategy.(Modeler)
		if !k || m.Model() == nil {
			return 0, 0, false
		}
		w := m.Model()
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

	// --- Extraction loop ----------------------------------------------
	// Batch spans group the documents processed between two consecutive
	// (re-)rankings; doc spans nest under them, giving the trace its
	// run -> batch -> doc causal spine.
	var buffer []LabeledDoc
	batchDocs := 0
	requeues := make(map[corpus.DocID]int)
	spBatch := tr.Start(obs.SpanBatch)
	for cursor < len(pending) {
		if opts.MaxDocs > 0 && len(res.Order) >= opts.MaxDocs {
			break
		}
		if ctx.Err() != nil {
			res.Interrupted = true
			break
		}
		d := pending[cursor]
		cursor++
		if processed[d.ID] {
			continue // duplicates can enter via search-interface growth
		}

		// Tuple extraction (simulated cost for precomputed oracles; real
		// extraction work for live oracles). A document is marked
		// processed only at a final outcome — success or skip — so a
		// breaker-open requeue can re-enter it later.
		ld, outcome, reason := labelDoc(d)
		switch outcome {
		case outcomeCancelled:
			res.Interrupted = true
		case outcomeRequeue:
			requeues[d.ID]++
			res.Requeued++
			cRequeued.Inc()
			if rec.Enabled() {
				rec.Record(obs.Event{Kind: obs.KindDocRequeued,
					Doc: int64(d.ID), N: requeues[d.ID]})
			}
			if requeues[d.ID] > opts.RequeueLimit {
				processed[d.ID] = true
				markSkipped(d.ID, obs.ReasonRequeueLimit)
			} else {
				pending = append(pending, d)
			}
			continue
		case outcomeSkip:
			processed[d.ID] = true
			markSkipped(d.ID, reason)
			continue
		}
		if res.Interrupted {
			break
		}
		processed[d.ID] = true
		spDoc := tr.Start(obs.SpanDoc)
		batchDocs++
		collect(ld.Tuples)
		res.Order = append(res.Order, d.ID)
		res.OrderLabels = append(res.OrderLabels, ld.Useful)
		res.Time.Extraction += opts.ExtractionCost
		buffer = append(buffer, ld)
		cDocs.Inc()
		if ld.Useful {
			cUseful.Inc()
		}
		spDoc.SetNum("doc", float64(d.ID)).SetNum("cost_ns", float64(opts.ExtractionCost))
		if ld.Useful {
			spDoc.SetAttr("useful", "true")
		}
		if rec.Enabled() {
			rec.Record(obs.Event{Kind: obs.KindDocExtracted, Doc: int64(d.ID),
				Useful: ld.Useful, Dur: opts.ExtractionCost, Span: spDoc.ID()})
		}

		// Keep the explain logical clock on the ranked-phase position, so
		// detector decision records made below carry the position they
		// were decided at.
		ex.Advance(len(res.Order))

		// Strategy self-observation (A-FC re-ranks continuously).
		t := time.Now()
		selfRerank := opts.Strategy.Observe(ld)
		od := time.Since(t)
		res.Time.Ranking += od
		accObserve += od

		// Update detection.
		trigger := false
		if opts.Detector != nil {
			spDet := tr.Start(obs.SpanDetect)
			t = time.Now()
			trigger = opts.Detector.Observe(feats(d), ld.Useful)
			dt := time.Since(t)
			spDet.End()
			res.Time.Detection += dt
			res.DetectorTime += dt
			res.DetectorObservations++
			accDetect += dt
			hDetect.ObserveDuration(dt)
			if trigger {
				cFired.Inc()
			} else {
				cSuppressed.Inc()
			}
		}

		if trigger {
			// Model update: fold the buffered documents in (online —
			// no retraining from scratch).
			bufN := len(buffer)
			if rec.Enabled() {
				rec.Record(obs.Event{Kind: obs.KindDetectorFired,
					Name: opts.Detector.Name(), N: bufN})
			}
			spTrain := tr.Start(obs.SpanTrainUpdate)
			t = time.Now()
			opts.Strategy.Update(buffer)
			updateDur := time.Since(t)
			spTrain.SetNum("buffered", float64(bufN)).End()
			res.Time.Training += updateDur
			cUpdates.Inc()
			hUpdate.ObserveDuration(updateDur)
			buffer = buffer[:0]
			res.UpdatePositions = append(res.UpdatePositions, len(res.Order))
			opts.Detector.Reset()

			// Feature churn bookkeeping.
			var added, removed, size int
			haveChurn := false
			if cur := modelSnapshot(); cur != nil {
				haveChurn = true
				d := vector.Drift(prevModel, cur)
				added, removed, size = d.Entered, d.Left, cur.NNZ()
				res.Churn = append(res.Churn, ChurnRecord{
					Position: len(res.Order), Added: added, Removed: removed, Size: size,
				})
				prevModel = cur
				reg.Gauge(obs.MetricPipelineModelSupport).Set(float64(size))
				reg.Counter(obs.MetricPipelineFeaturesAdded).Add(int64(added))
				reg.Counter(obs.MetricPipelineFeaturesRemoved).Add(int64(removed))
			}
			if rec.Enabled() {
				ev := obs.Event{Kind: obs.KindModelUpdated, N: bufN, Dur: updateDur}
				if haveChurn {
					ev.Added, ev.Removed, ev.Val = added, removed, float64(size)
				}
				rec.Record(ev)
			}
			explainSnapshot(explain.StageTrainUpdate, spTrain.ID(), added, removed)

			// Journal a model snapshot at this update position; on resume
			// this verifies (rather than re-records) and aborts on
			// divergence instead of silently producing different results.
			if opts.Journal != nil {
				if nnz, sum, ok := modelHash(); ok {
					if err := opts.Journal.CheckSnapshot(len(res.Order), nnz, sum); err != nil {
						return nil, fmt.Errorf("pipeline: resume diverged from journal: %w", err)
					}
				}
			}

			// Search-interface scenario: issue the top model features as
			// fresh queries and grow the pool.
			if opts.SearchIface != nil {
				pending = append(pending, retrieveByTopFeatures(opts, processed)...)
			}
		}

		spDoc.End()
		if trigger || selfRerank {
			spBatch.SetNum("docs", float64(batchDocs)).End()
			pending = pending[cursor:]
			cursor = 0
			rank()
			spBatch = tr.Start(obs.SpanBatch)
			batchDocs = 0
		}
	}
	spBatch.SetNum("docs", float64(batchDocs)).End()
	return epilogue()
}

// rankEntry pairs a pending document with its score in one rank pass.
type rankEntry struct {
	score float64
	doc   *corpus.Document
}

// rankOrder reorders docs by their scores (scores[i] is docs[i]'s): score
// descending, then document id ascending. A NaN score ranks after every
// other score, −Inf (a panicked document's score) included, and NaNs
// order among themselves by id. The order is total (a document repeated
// in a pass is the same *Document with the same score), so the unstable
// sort is deterministic. pairs is scratch space; the grown scratch is
// returned for the next pass.
func rankOrder(docs []*corpus.Document, scores []float64, pairs []rankEntry) []rankEntry {
	if cap(pairs) < len(docs) {
		pairs = make([]rankEntry, 0, len(docs))
	}
	pairs = pairs[:0]
	for i, d := range docs {
		pairs = append(pairs, rankEntry{scores[i], d})
	}
	slices.SortFunc(pairs, func(a, b rankEntry) int {
		// cmp.Compare orders NaN first, so NaN comes last descending.
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.doc.ID, b.doc.ID)
	})
	for i, p := range pairs {
		docs[i] = p.doc
	}
	return pairs
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

// retrieveByTopFeatures turns the strategy's strongest positive model
// features into keyword queries and returns the unseen retrieved documents.
func retrieveByTopFeatures(opts Options, processed map[corpus.DocID]bool) []*corpus.Document {
	m, ok := opts.Strategy.(Modeler)
	if !ok || m.Model() == nil || opts.Featurizer == nil {
		return nil
	}
	var out []*corpus.Document
	seen := make(map[corpus.DocID]bool)
	top := m.Model().TopK(opts.SearchIface.TopFeatures)
	for _, f := range top {
		if f.Weight <= 0 {
			continue
		}
		name := opts.Featurizer.FeatureName(f.Index)
		term := strings.TrimPrefix(name, "w=")
		for _, h := range opts.SearchIface.Index.Search(term, opts.SearchIface.PerFeatureK) {
			if !processed[h.Doc] && !seen[h.Doc] {
				seen[h.Doc] = true
				out = append(out, opts.Coll.Doc(h.Doc))
			}
		}
	}
	return out
}
