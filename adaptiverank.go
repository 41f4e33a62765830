// Package adaptiverank is an adaptive document-ranking library for
// scalable information extraction, reproducing Barrio, Simões, Galhardas,
// and Gravano, "Learning to Rank Adaptively for Scalable Information
// Extraction" (EDBT 2015).
//
// Given a document collection and an already-trained, black-box
// information extraction system, the library prioritizes the documents
// most likely to yield tuples so that most of the extraction output is
// obtained after processing a small fraction of the collection. The
// ranking model (RSVM-IE, an online pairwise RankSVM with elastic-net
// in-training feature selection, or BAgg-IE, a bagged committee of online
// linear SVMs) learns continuously from extraction outcomes, and an
// update-detection policy (Mod-C, Top-K, Wind-F, or Feat-S) decides when
// re-ranking the remaining documents pays off.
//
// Quick start:
//
//	coll, _ := adaptiverank.GenerateCorpus(42, 5000) // or bring your own documents
//	ex := adaptiverank.BuiltinExtractor(adaptiverank.NaturalDisasterLocation)
//	res, err := adaptiverank.Run(coll, ex, adaptiverank.Options{})
//
// See the examples directory for complete programs.
package adaptiverank

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/extract"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/explain"
	"adaptiverank/internal/pipeline"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/sampling"
	"adaptiverank/internal/textgen"
	"adaptiverank/internal/update"
)

// Document is one text document of a collection.
type Document = corpus.Document

// DocID identifies a document within a collection.
type DocID = corpus.DocID

// Collection is an ordered document set.
type Collection = corpus.Collection

// Tuple is one extracted fact.
type Tuple = relation.Tuple

// Relation identifies one of the built-in extraction tasks.
type Relation = relation.Relation

// The built-in extraction tasks of the paper's Table 1.
const (
	PersonOrganization      = relation.PO
	DiseaseOutbreak         = relation.DO
	PersonCareer            = relation.PC
	NaturalDisasterLocation = relation.ND
	ManMadeDisasterLocation = relation.MD
	PersonCharge            = relation.PH
	ElectionWinner          = relation.EW
)

// Extractor is the black-box information extraction system interface: any
// already-trained system that maps a document to tuples can be plugged in.
type Extractor = extract.Extractor

// Observability aliases: the library's observability subsystem lives in
// internal/obs; these aliases expose it through the public API so callers
// can collect metrics and traces without importing internal packages.

// Recorder receives a run's structured event trace (see Options.Recorder).
type Recorder = obs.Recorder

// TraceEvent is one structured trace record; see the internal/obs
// documentation for the event vocabulary.
type TraceEvent = obs.Event

// JSONLRecorder writes trace events as JSON lines; remember to call
// Flush when the run finishes.
type JSONLRecorder = obs.JSONLRecorder

// Metrics is a named registry of atomic counters, gauges, and
// fixed-bucket latency histograms (see Options.Metrics).
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry to pass in Options.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewTraceRecorder returns a Recorder that streams JSONL trace events to w.
func NewTraceRecorder(w io.Writer) *JSONLRecorder { return obs.NewJSONLRecorder(w) }

// MetricsSnapshot is a typed, name-sorted, point-in-time view of a
// metrics registry (see Metrics.Snapshot): the shared read path behind
// both the text dump and the Prometheus exposition.
type MetricsSnapshot = obs.Snapshot

// WritePrometheus emits a metrics snapshot in the Prometheus text
// exposition format version 0.0.4 (counters, gauges, and histograms
// with cumulative le-labelled buckets).
func WritePrometheus(w io.Writer, s MetricsSnapshot) error { return obs.WritePrometheus(w, s) }

// TeeRecorder fans every trace event out to all the given recorders
// with one shared sequence numbering (e.g. a JSONL trace file plus an
// in-memory consumer observing the same run).
func TeeRecorder(sinks ...Recorder) Recorder { return obs.Tee(sinks...) }

// ReadTrace parses a JSONL trace back into events.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return obs.ReadEvents(r) }

// Explainer is the model-introspection substrate (see Options.Explain):
// it captures exact per-feature score attributions for top-ranked
// documents, a weight-drift timeline across model updates, and — when
// its Recorder is teed into Options.Recorder — the structured evidence
// behind every detector decision, all into a crash-safe JSONL artifact
// (render it with cmd/runreport) plus a live HTTP view.
type Explainer = explain.Explainer

// ExplainOptions configures NewExplainer; Dir is required.
type ExplainOptions = explain.Options

// NewExplainer opens a model-introspection artifact directory.
func NewExplainer(opts ExplainOptions) (*Explainer, error) { return explain.New(opts) }

// TracePhaseTotals folds a trace's per-event durations into the paper's
// CPU-time accounts ("extraction", "ranking", "detection", "training",
// plus "total").
func TracePhaseTotals(events []TraceEvent) map[string]time.Duration {
	return obs.PhaseTotals(events)
}

// BuiltinExtractor returns the trained built-in extraction system for one
// of the seven Table 1 relations.
func BuiltinExtractor(rel Relation) Extractor { return extract.Get(rel) }

// FaultInjection configures seeded, deterministic fault injection on the
// extractor — transient errors, panics, hangs, latency spikes, and
// permanently poisoned documents — for resilience testing and demos (see
// Options.Flaky and internal/extract.FlakyOptions).
type FaultInjection = extract.FlakyOptions

// Resilience tunes the fault-tolerance stack around a faulty extractor:
// retry with capped exponential backoff, per-attempt timeout, panic
// recovery, and a circuit breaker (see Options.Resilience and
// internal/pipeline.ResilientOptions). The zero value selects defaults.
type Resilience = pipeline.ResilientOptions

// NewFlakyExtractor wraps an extractor with deterministic fault
// injection, for testing consumers that want the faulty extractor
// directly rather than through Options.Flaky.
func NewFlakyExtractor(ex Extractor, opts FaultInjection) Extractor {
	return extract.NewFlaky(ex, opts)
}

// funcExtractor adapts a plain extraction function to the Extractor
// interface.
type funcExtractor struct {
	rel  Relation
	cost time.Duration
	fn   func(d *Document) []Tuple
}

func (f *funcExtractor) Relation() Relation           { return f.rel }
func (f *funcExtractor) SimulatedCost() time.Duration { return f.cost }
func (f *funcExtractor) Extract(d *Document) []Tuple  { return f.fn(d) }

// NewExtractor wraps a user-supplied extraction function as an Extractor,
// so any black-box IE system can be plugged into the ranking pipeline.
// rel labels the produced tuples (reuse the closest built-in relation or
// any Relation value); cost is the per-document CPU cost used by the
// time-accounting reports.
func NewExtractor(rel Relation, cost time.Duration, fn func(d *Document) []Tuple) Extractor {
	return &funcExtractor{rel: rel, cost: cost, fn: fn}
}

// NewCollection wraps documents (ids are assigned by position).
func NewCollection(docs []*Document) *Collection { return corpus.NewCollection(docs) }

// GenerateCorpus generates a synthetic news-style collection with planted
// relations for all seven built-in tasks (see internal/textgen).
func GenerateCorpus(seed int64, numDocs int) (*Collection, error) {
	if numDocs <= 0 {
		return nil, fmt.Errorf("adaptiverank: numDocs must be positive, got %d", numDocs)
	}
	coll, _ := textgen.Generate(textgen.DefaultConfig(seed, numDocs))
	return coll, nil
}

// Strategy selects the ranking model.
type Strategy int

// Available ranking strategies.
const (
	// RSVMIE is the paper's best performer: online pairwise RankSVM with
	// elastic-net in-training feature selection.
	RSVMIE Strategy = iota
	// BAggIE is the bagged committee of online linear SVM classifiers.
	BAggIE
	// RandomOrder processes documents in random order (baseline).
	RandomOrder
)

// Detector selects the update-detection policy for adaptive runs.
type Detector int

// Available update-detection policies.
const (
	// ModC compares the live model against a shadow model trained on a
	// fraction of recent documents (the paper's best policy).
	ModC Detector = iota
	// TopK compares top-K feature lists with a weighted footrule.
	TopK
	// WindF updates every fixed number of documents.
	WindF
	// FeatS is the kernel one-class-SVM feature-shift baseline.
	FeatS
	// NoDetector disables adaptation (base, non-adaptive ranking).
	NoDetector
)

// Options configures Run. The zero value requests the paper's best
// configuration: adaptive RSVM-IE with Mod-C update detection.
type Options struct {
	// Strategy is the ranking model (default RSVMIE).
	Strategy Strategy
	// Detector is the update policy (default ModC; NoDetector disables
	// adaptation).
	Detector Detector
	// SampleSize is the initial random document sample used to train the
	// first model (default 500, or 10% of the collection if smaller). A
	// negative size is an error.
	SampleSize int
	// MaxDocs stops after processing this many ranked documents
	// (0 = whole collection).
	MaxDocs int
	// Seed drives sampling and stochastic learning (default 1).
	Seed int64
	// Workers sets the number of goroutines used to score pending
	// documents during (re-)ranking; 0 uses GOMAXPROCS. The resulting
	// ranking is identical to a sequential run.
	Workers int
	// Metrics, when non-nil, receives the run's counters, gauges, and
	// latency histograms; inspect it with Dump after Run returns.
	Metrics *Metrics
	// Recorder, when non-nil, receives the run's structured event trace
	// (e.g. NewTraceRecorder). nil disables tracing at zero cost.
	Recorder Recorder
	// Explain, when non-nil, arms model introspection: weight snapshots
	// at every model update and score attributions for the top-ranked
	// documents flow into the explainer's artifact directory. Tee
	// Explain.Recorder() into Recorder to persist detector decision
	// evidence too. Like Metrics and Recorder it never changes what the
	// run computes.
	Explain *Explainer
	// Flaky, when non-nil, wraps the extractor with seeded deterministic
	// fault injection (transient errors, panics, hangs, latency spikes,
	// poisoned documents). Setting it implies Resilience so injected
	// faults are retried rather than crashing the run.
	Flaky *FaultInjection
	// Resilience, when non-nil, runs extraction through the
	// fault-tolerance stack: per-attempt timeout, capped exponential
	// backoff with jitter, panic recovery, and a circuit breaker whose
	// open state requeues documents instead of hammering a down backend.
	// Zero fields take defaults. Leave nil (with Flaky nil) for the
	// bare-metal path with no retry overhead.
	Resilience *Resilience
	// Checkpoint, when non-empty, is the path of a crash-safe JSONL run
	// journal: every extraction outcome is flushed to it before it can
	// affect the model, so a killed run can be resumed without losing
	// acknowledged work. Without Resume the file is created fresh.
	Checkpoint string
	// Resume reopens an existing Checkpoint journal and replays its
	// outcomes: already-journaled documents skip extraction, and because
	// the rest of the run is deterministic the resumed run reproduces
	// the interrupted one exactly (model snapshots in the journal verify
	// this and fail loudly on divergence). The journal must have been
	// written by an identically configured run over the same corpus.
	Resume bool
}

// Result reports an extraction run.
type Result struct {
	// Tuples are all distinct tuples extracted, in discovery order.
	Tuples []Tuple
	// DocsProcessed counts processed documents (sample + ranked phase).
	DocsProcessed int
	// UsefulFound counts processed documents that yielded tuples.
	UsefulFound int
	// Updates counts model updates performed during the run.
	Updates int
	// RankingOverhead is the measured CPU time spent ranking, training,
	// and detecting updates (everything except extraction itself).
	RankingOverhead time.Duration
	// Order is the ranked-phase processing order.
	Order []DocID
	// Skipped lists documents the resilience policy abandoned (every
	// retry failed, or the requeue limit was hit); empty without faults.
	Skipped []DocID
	// Requeued counts breaker-open fast-fails that sent a document back
	// to the end of the queue.
	Requeued int
	// Interrupted reports that the run was cancelled (RunContext) before
	// completing; the partial result and any Checkpoint journal written
	// so far are valid, and a Resume run picks up where it stopped.
	Interrupted bool
}

// workers resolves the worker-count option.
func workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes adaptive ranked extraction over the collection with the
// given black-box extractor.
func Run(coll *Collection, ex Extractor, opts Options) (*Result, error) {
	return RunContext(context.Background(), coll, ex, opts)
}

// RunContext is Run with cancellation: cancel ctx (e.g. from a SIGINT
// handler via signal.NotifyContext) and the run drains gracefully — the
// in-flight document finishes, the Checkpoint journal and trace stay
// flushed, and the partial Result comes back with Interrupted set.
func RunContext(ctx context.Context, coll *Collection, ex Extractor, opts Options) (*Result, error) {
	if coll == nil || coll.Len() == 0 {
		return nil, fmt.Errorf("adaptiverank: empty collection")
	}
	if ex == nil {
		return nil, fmt.Errorf("adaptiverank: nil extractor")
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.SampleSize < 0 {
		return nil, fmt.Errorf("adaptiverank: negative sample size %d", opts.SampleSize)
	}
	if opts.SampleSize == 0 {
		opts.SampleSize = 500
		if tenth := coll.Len() / 10; tenth < opts.SampleSize {
			opts.SampleSize = tenth
		}
		if opts.SampleSize < 1 {
			opts.SampleSize = 1
		}
	}

	feat := ranking.NewFeaturizer()
	var ranker ranking.Ranker
	switch opts.Strategy {
	case RSVMIE:
		ranker = ranking.NewRSVMIE(ranking.RSVMOptions{Seed: opts.Seed})
	case BAggIE:
		ranker = ranking.NewBAggIE(ranking.BAggOptions{})
	case RandomOrder:
		ranker = ranking.NewRandomRanker(opts.Seed)
	default:
		return nil, fmt.Errorf("adaptiverank: unknown strategy %d", opts.Strategy)
	}

	var det update.Detector
	switch opts.Detector {
	case ModC:
		alpha := 5.0
		if opts.Strategy == BAggIE {
			alpha = 30
		}
		det = update.NewModC(ranker, 0.1, alpha, opts.Seed+100)
	case TopK:
		det = update.NewTopK(update.TopKOptions{})
	case WindF:
		det = update.NewWindF(coll.Len() / 50)
	case FeatS:
		det = update.NewFeatS(update.FeatSOptions{})
	case NoDetector:
		det = nil
	default:
		return nil, fmt.Errorf("adaptiverank: unknown detector %d", opts.Detector)
	}
	if opts.Strategy == RandomOrder {
		det = nil // adaptation cannot help a random order
	}

	// Oracle chain: (Resilient?)(ExtractorOracle((Flaky?)(extractor))).
	// The pipeline accumulates tuples itself, so the same chain works
	// whether outcomes come from live extraction or journal replay.
	pex := ex
	if opts.Flaky != nil {
		pex = extract.NewFlaky(ex, *opts.Flaky)
	}
	var oracle pipeline.Oracle = &pipeline.ExtractorOracle{Ex: pex}
	if opts.Resilience != nil || opts.Flaky != nil {
		ropts := Resilience{}
		if opts.Resilience != nil {
			ropts = *opts.Resilience
		}
		oracle = pipeline.NewResilient(oracle, ropts)
	}

	var journal *pipeline.Journal
	if opts.Checkpoint != "" {
		fp := runFingerprint(coll, ex, opts)
		var jerr error
		if opts.Resume {
			journal, jerr = pipeline.OpenJournal(opts.Checkpoint, fp)
		} else {
			journal, jerr = pipeline.CreateJournal(opts.Checkpoint, fp)
		}
		if jerr != nil {
			return nil, jerr
		}
	}

	res, err := pipeline.RunContext(ctx, pipeline.Options{
		Rel:            ex.Relation(),
		ExtractionCost: ex.SimulatedCost(),
		Coll:           coll,
		Labels:         oracle,
		Sample:         sampling.SRS(coll, opts.SampleSize, opts.Seed),
		Strategy:       pipeline.NewLearned(ranker, feat),
		Detector:       det,
		Featurizer:     feat,
		MaxDocs:        opts.MaxDocs,
		Workers:        workers(opts.Workers),
		Metrics:        opts.Metrics,
		Recorder:       opts.Recorder,
		Explain:        opts.Explain,
		Journal:        journal,
	})
	if cerr := journal.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("adaptiverank: closing checkpoint: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	useful := res.SampleUseful
	for _, u := range res.OrderLabels {
		if u {
			useful++
		}
	}
	return &Result{
		Tuples:          res.Tuples,
		DocsProcessed:   res.SampleSize + len(res.Order),
		UsefulFound:     useful,
		Updates:         len(res.UpdatePositions),
		RankingOverhead: res.Time.Overhead(),
		Order:           res.Order,
		Skipped:         res.Skipped,
		Requeued:        res.Requeued,
		Interrupted:     res.Interrupted,
	}, nil
}

// Fingerprint returns the run-configuration digest of a (collection,
// extractor, options) triple — the same string the crash-safe journal
// binds to. The CLIs embed it in profiling manifests and postmortem
// bundles, so every artifact of a run traces back to exactly one
// configuration.
func Fingerprint(coll *Collection, ex Extractor, opts Options) string {
	return runFingerprint(coll, ex, opts)
}

// runFingerprint identifies a run configuration for checkpoint files:
// resuming a journal written by a different configuration (or corpus)
// would replay wrong outcomes, so OpenJournal rejects a mismatch. Only
// result-affecting options participate — Workers, Metrics, Recorder,
// and Explain do not change what a run computes.
func runFingerprint(coll *Collection, ex Extractor, opts Options) string {
	flaky := ""
	if opts.Flaky != nil {
		f := *opts.Flaky
		flaky = fmt.Sprintf("seed=%d,err=%g,panic=%g,hang=%g,lat=%g,poison=%g,mfa=%d",
			f.Seed, f.ErrorRate, f.PanicRate, f.HangRate, f.LatencyRate, f.PoisonRate, f.MaxFaultyAttempts)
	}
	resil := ""
	if opts.Resilience != nil {
		r := *opts.Resilience
		resil = fmt.Sprintf("attempts=%d,breaker=%d/%d", r.MaxAttempts, r.BreakerThreshold, r.BreakerCooldown)
	}
	return fmt.Sprintf("adaptiverank/v1 rel=%s strat=%d det=%d seed=%d sample=%d maxdocs=%d corpus=%016x flaky{%s} resil{%s}",
		ex.Relation().Code(), opts.Strategy, opts.Detector, opts.Seed, opts.SampleSize,
		opts.MaxDocs, coll.Checksum(), flaky, resil)
}

// LoadCorpusJSONL reads a collection from a JSON-lines file with one
// {"title": ..., "text": ...} object per line — the interchange format for
// bringing your own documents.
func LoadCorpusJSONL(path string) (*Collection, error) {
	return corpus.LoadJSONL(path)
}

// SaveCorpusJSONL writes a collection to a JSON-lines file.
func SaveCorpusJSONL(path string, c *Collection) error {
	return corpus.SaveJSONL(path, c)
}
