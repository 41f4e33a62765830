package obs

// This file is the single registry of every obs name the system emits:
// metric names, span names, phase names, CPU-time account keys, fault
// classes, breaker states, document-skip reasons, worker-panic sites,
// and SLO watchdog rules. The obsevent analyzer (internal/lint) rejects
// string literals at Record/span/metric call sites that do not come
// from a constant declared here, so the emitters, the trace analytics
// (internal/obs/report), the Prometheus exposition, and the watchdog
// rules can never disagree on spelling.

// Metric names: counters, gauges, and histograms registered on a
// Registry. Grouped by owning subsystem.
const (
	// internal/pipeline run loop.
	MetricPipelineSampleDocs         = "pipeline.sample_docs"
	MetricPipelineDocsProcessed      = "pipeline.docs_processed"
	MetricPipelineDocsUseful         = "pipeline.docs_useful"
	MetricPipelineReranks            = "pipeline.reranks"
	MetricPipelineUpdates            = "pipeline.updates"
	MetricPipelineDetectorFired      = "pipeline.detector_fired"
	MetricPipelineDetectorSuppressed = "pipeline.detector_suppressed"
	MetricPipelineRankSeconds        = "pipeline.rank_seconds"
	MetricPipelineUpdateSeconds      = "pipeline.update_seconds"
	MetricPipelineDetectSeconds      = "pipeline.detect_seconds"
	MetricPipelinePoolSize           = "pipeline.pool_size"
	MetricPipelineModelSupport       = "pipeline.model_support"
	MetricPipelineFeaturesAdded      = "pipeline.features_added"
	MetricPipelineFeaturesRemoved    = "pipeline.features_removed"
	MetricPipelineDocsSkipped        = "pipeline.docs_skipped"
	MetricPipelineDocsRequeued       = "pipeline.docs_requeued"
	MetricPipelineWorkerPanics       = "pipeline.worker_panics"

	// pipeline.Resilient fault-tolerance layer.
	MetricResilienceFaults           = "resilience.faults"
	MetricResiliencePanicsRecovered  = "resilience.panics_recovered"
	MetricResilienceTimeouts         = "resilience.timeouts"
	MetricResilienceRetries          = "resilience.retries"
	MetricResilienceDocsPoisoned     = "resilience.docs_poisoned"
	MetricResilienceBreakerTrips     = "resilience.breaker_trips"
	MetricResilienceBreakerFastFails = "resilience.breaker_fastfails"

	// internal/ranking strategies.
	MetricRankingBAggLearnSeconds = "ranking.bagg.learn_seconds"
	MetricRankingBAggSteps        = "ranking.bagg.steps"
	MetricRankingRSVMLearnSeconds = "ranking.rsvm.learn_seconds"
	MetricRankingRSVMSteps        = "ranking.rsvm.steps"
	MetricRankingRSVMSupport      = "ranking.rsvm.support"

	// internal/update detectors.
	MetricUpdateModCAngleDegrees = "update.modc.angle_degrees"
	MetricUpdateFeatSShift       = "update.feats.shift"
	MetricUpdateTopKFootrule     = "update.topk.footrule"
	MetricUpdateWindFProgress    = "update.windf.progress"

	// internal/obs/explain model-introspection substrate.
	MetricExplainSnapshots    = "explain.snapshots"
	MetricExplainAttributions = "explain.attributions"
	MetricExplainDecisions    = "explain.decisions"
	MetricExplainErrors       = "explain.errors"

	// metrics.TimeAccount gauges.
	MetricTimeExtractionSeconds = "time.extraction_seconds"
	MetricTimeRankingSeconds    = "time.ranking_seconds"
	MetricTimeDetectionSeconds  = "time.detection_seconds"
	MetricTimeTrainingSeconds   = "time.training_seconds"
	MetricTimeTotalSeconds      = "time.total_seconds"

	// RuntimeSampler gauges (see runtime.go).
	MetricRuntimeGoroutines         = "runtime.goroutines"
	MetricRuntimeHeapAllocBytes     = "runtime.heap_alloc_bytes"
	MetricRuntimeHeapSysBytes       = "runtime.heap_sys_bytes"
	MetricRuntimeHeapObjects        = "runtime.heap_objects"
	MetricRuntimeNextGCBytes        = "runtime.next_gc_bytes"
	MetricRuntimeGCCount            = "runtime.gc_count"
	MetricRuntimeGCPauseLastSeconds = "runtime.gc_pause_last_seconds"
	MetricRuntimeGCPauseTotalSecs   = "runtime.gc_pause_total_seconds"

	// internal/experiments harness.
	MetricExperimentsLabelCacheErrors = "experiments.label_cache_errors"

	// internal/obs/blackbox flight recorder.
	MetricBlackboxEvents        = "blackbox.events"
	MetricBlackboxEventsDropped = "blackbox.events_dropped"
	MetricBlackboxDumps         = "blackbox.dumps"
	MetricBlackboxDumpErrors    = "blackbox.dump_errors"

	// internal/obs/prof continuous-profiling harness.
	MetricProfCPUWindows = "prof.cpu_windows"
	MetricProfSnapshots  = "prof.snapshots"
	MetricProfErrors     = "prof.errors"
)

// Span names: the vocabulary of Tracer.Start. The span tree of one run
// is run > rank|batch, batch > doc > detect > train-update; sample,
// train-init and detector-prime are direct children of run; the ranker
// learn spans nest under train-init/train-update.
const (
	SpanRun           = "run"
	SpanSample        = "sample"
	SpanTrainInit     = "train-init"
	SpanDetectorPrime = "detector-prime"
	SpanRank          = "rank"
	SpanBatch         = "batch"
	SpanDoc           = "doc"
	SpanDetect        = "detect"
	SpanTrainUpdate   = "train-update"
	SpanBAggLearn     = "bagg-learn"
	SpanRSVMLearn     = "rsvm-learn"
)

// Phase names: the Name of KindPhase events. PhaseTotals folds them
// into the CPU-time accounts below. PhaseStrategyObserve is the ranking
// work a pipeline does per document outside its rank passes: the
// strategy's Observe and the pop of the next document from the pass's
// heap.
const (
	PhaseInitTrain       = "init-train"
	PhaseDetectorPrime   = "detector-prime"
	PhaseDetection       = "detection"
	PhaseStrategyObserve = "strategy-observe"
)

// Profile-phase labels: the phase attribution vocabulary of
// internal/obs/prof, used as the pprof "phase" label on CPU samples and
// the Phase of snapshot records. Named phase spans (SpanSample,
// SpanTrainInit, SpanDetectorPrime, SpanRank, SpanTrainUpdate) label
// with their own span name; the gaps are labelled explicitly:
// ProfPhaseExtract is the document-extraction loop between phase spans
// of an open run, ProfPhaseIdle is everything outside a run (process
// start-up, between experiment-suite runs, shutdown).
const (
	ProfPhaseExtract = "extract"
	ProfPhaseIdle    = "idle"
)

// Profile artifact kinds: the Artifact field of internal/obs/prof
// manifest records, naming what each captured file contains.
const (
	ProfArtifactCPU       = "cpu"
	ProfArtifactHeap      = "heap"
	ProfArtifactAllocs    = "allocs"
	ProfArtifactGoroutine = "goroutine"
	ProfArtifactMetrics   = "metrics"
)

// Blackbox dump-trigger reasons: the Reason recorded in a postmortem
// bundle's meta.json, naming what flushed the flight recorder.
const (
	DumpReasonWorkerPanic  = "worker-panic"
	DumpReasonExtractPanic = "extract-panic"
	DumpReasonAlert        = "slo-alert"
	DumpReasonSignal       = "signal"
	DumpReasonManual       = "manual"
)

// CPU-time account keys: the map keys of PhaseTotals and
// report.RunReport.Phases, mirroring metrics.TimeAccount.
const (
	AccountExtraction = "extraction"
	AccountRanking    = "ranking"
	AccountDetection  = "detection"
	AccountTraining   = "training"
	AccountTotal      = "total"
)

// Fault classes: the Name of KindExtractFault events.
const (
	FaultError       = "error"
	FaultPanic       = "panic"
	FaultTimeout     = "timeout"
	FaultBreakerOpen = "breaker-open"
)

// Breaker states: the Name of KindBreaker events and the vocabulary of
// Resilient.BreakerState.
const (
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
	BreakerClosed   = "closed"
)

// Skip reasons: the Name of KindDocSkipped events.
const (
	ReasonPoisoned     = "poisoned"
	ReasonRequeueLimit = "requeue-limit"
	ReasonBreakerOpen  = "breaker-open"
	ReasonError        = "error"
)

// Worker-panic sites: the Name of KindWorkerPanic events.
const (
	PanicSiteScore = "score"
	// PanicSiteScoreBatch marks a panic inside a batch-scoring fast path;
	// the chunk is re-scored per-document, so the event has no Doc and the
	// offending document is attributed by a follow-up PanicSiteScore event.
	PanicSiteScoreBatch = "score-batch"
)

// Detector-evidence attribute keys: the Attrs vocabulary of
// KindDetectorDecision events. Every fire/no-fire decision carries the
// evidence behind it — what the detector measured, against what
// threshold, from what internal state — so a decision in a trace or an
// explain log is auditable without re-running the pipeline. Keys are
// shared across detectors where the meaning is the same (EvidenceThreshold
// is always "the bound Val was compared against").
const (
	// All detectors: the threshold the decision statistic was compared to
	// (Mod-C AlphaDeg, Top-K Tau, Feat-S Tau, Wind-F Window).
	EvidenceThreshold = "threshold"
	// Mod-C: support sizes of the live and shadow models at decision time,
	// and whether this observation trained the shadow (the sampled ρ coin).
	EvidenceLiveNNZ       = "live_nnz"
	EvidenceShadowNNZ     = "shadow_nnz"
	EvidenceShadowTrained = "shadow_trained"
	// Top-K: how many features entered/left the reference top-k ranking,
	// the k compared, and the most-displaced features ("name:Δrank" list).
	EvidenceEntered   = "entered"
	EvidenceLeft      = "left"
	EvidenceK         = "k"
	EvidenceDisplaced = "displaced"
	// Feat-S: trailing-window state captured before the cadence reset —
	// window length, in-distribution count, and the check cadence.
	EvidenceWindow     = "window"
	EvidenceInside     = "inside"
	EvidenceCheckEvery = "check_every"
	// Wind-F: documents seen in the current window (Window is the
	// threshold above).
	EvidenceSeen = "seen"
)

// Watchdog rule names, used as the Name of alert events.
const (
	// RuleRecallSlope fires when the useful-document fraction over the
	// trailing window of ranked documents falls below the floor: the
	// run's recall trajectory has flattened out.
	RuleRecallSlope = "recall-slope"
	// RuleFireRate fires when the fired fraction over the trailing
	// window of detector decisions exceeds the ceiling: the detector is
	// thrashing and update cost will swamp the extraction budget.
	RuleFireRate = "detector-fire-rate"
	// RuleStepLatency fires when the p99 of per-document step durations
	// over the trailing window exceeds the ceiling.
	RuleStepLatency = "step-latency-p99"
	// RuleFaultRate fires when the fraction of extraction attempts that
	// faulted (over the trailing window of attempt outcomes: one entry
	// per extract-fault, one per successfully extracted document) exceeds
	// the ceiling: the extractor backend is degrading and the retry layer
	// is absorbing the damage.
	RuleFaultRate = "extract-fault-rate"
)
