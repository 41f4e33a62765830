package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"adaptiverank/internal/durable"
)

// Kind names one structured trace event type.
type Kind string

// The event vocabulary of one pipeline run. Per-phase durations are
// carried on the events themselves (Dur); PhaseTotals maps them back to
// the four CPU-time accounts of metrics.TimeAccount.
const (
	// KindRunStarted opens a run (Name = strategy, N = collection size,
	// Val = total useful documents when the labelling oracle knows it —
	// the recall denominator post-hoc trace analysis needs).
	KindRunStarted Kind = "run-started"
	// KindRunFinished closes a run (N = ranked docs, Dur = total CPU time).
	KindRunFinished Kind = "run-finished"
	// KindSampleLabelled reports one labelled initial-sample document
	// (Doc, Useful, Dur = simulated extraction cost).
	KindSampleLabelled Kind = "sample-labelled"
	// KindRankStarted opens one (re-)ranking of the pending pool (N = pool).
	KindRankStarted Kind = "rank-started"
	// KindRankFinished closes it (N = pool, Dur = measured scoring+sorting).
	KindRankFinished Kind = "rank-finished"
	// KindDocExtracted reports one ranked-phase document (Doc, Useful,
	// Dur = simulated extraction cost).
	KindDocExtracted Kind = "doc-extracted"
	// KindDetectorDecision is emitted by the update detectors themselves:
	// Name = detector, Val = its decision statistic (Mod-C cosine angle in
	// degrees, Top-K weighted footrule, Feat-S shift fraction, Wind-F
	// window progress), Fired = whether the statistic crossed the trigger
	// threshold, Attrs = the structured evidence behind the decision (the
	// Evidence* keys in names.go: thresholds, model support sizes,
	// displaced features, window state).
	KindDetectorDecision Kind = "detector-decision"
	// KindDetectorFired reports a pipeline-level update trigger
	// (N = buffered documents folded into the model).
	KindDetectorFired Kind = "detector-fired"
	// KindModelUpdated reports one model update (N = buffered docs,
	// Dur = measured training time, Added/Removed = feature churn,
	// Val = model support size after the update).
	KindModelUpdated Kind = "model-updated"
	// KindPhase carries a named aggregate duration ("init-train",
	// "detector-prime", "detection", "strategy-observe").
	KindPhase Kind = "phase"
	// KindSpanStart opens a span (Name = span name, Span = id, Parent =
	// enclosing span id or 0 for a root). See span.go.
	KindSpanStart Kind = "span-start"
	// KindSpanEnd closes a span (Span/Parent as on the start event, Dur =
	// measured span duration, Attrs = the span's typed attributes).
	KindSpanEnd Kind = "span-end"
	// KindAlert is an SLO watchdog alert (Name = rule, Val = observed
	// value, Limit = configured threshold, N = ranked-document position).
	// See watchdog.go.
	KindAlert Kind = "alert"
	// KindExtractFault reports one failed extraction attempt absorbed by
	// the resilience layer (Doc, Name = fault class "error" | "panic" |
	// "timeout", N = attempt number). See pipeline/resilient.go.
	KindExtractFault Kind = "extract-fault"
	// KindExtractRetry reports one scheduled retry after a fault (Doc,
	// N = failed attempt number, Dur = backoff before the next attempt).
	KindExtractRetry Kind = "extract-retry"
	// KindBreaker reports a circuit-breaker state transition (Name = new
	// state "open" | "half-open" | "closed", N = consecutive failures at
	// the transition).
	KindBreaker Kind = "breaker"
	// KindDocSkipped reports a document permanently dropped from the run
	// (Doc, Name = reason, e.g. "poisoned" or "requeue-limit").
	KindDocSkipped Kind = "doc-skipped"
	// KindDocRequeued reports a document pushed back to the end of the
	// pending pool after a transient failure (Doc, N = requeue count).
	KindDocRequeued Kind = "doc-requeued"
	// KindWorkerPanic reports a panic recovered inside a pipeline worker
	// (Doc, Name = site, e.g. "score" or "compute-labels").
	KindWorkerPanic Kind = "worker-panic"
	// KindCheckpoint reports run-journal progress (Name = journal path,
	// N = recorded documents). Emitted once when a resumed run finishes
	// replaying its journal.
	KindCheckpoint Kind = "checkpoint"
)

// Attr is one typed span attribute: a key plus either a string or a
// numeric value (never both).
type Attr struct {
	Key string  `json:"k"`
	Str string  `json:"s,omitempty"`
	Num float64 `json:"n,omitempty"`
}

// Event is one structured trace record. Unused fields are omitted from
// the JSONL encoding; Seq and T are assigned by the recorder.
type Event struct {
	// Seq is the 1-based record sequence number within the trace.
	Seq int64 `json:"seq,omitempty"`
	// T is the wall-clock record time in Unix nanoseconds.
	T int64 `json:"t,omitempty"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Name qualifies the event (strategy, detector, or phase name).
	Name string `json:"name,omitempty"`
	// Doc is the document id for per-document events.
	Doc int64 `json:"doc,omitempty"`
	// N is an event-specific count (pool size, buffered docs, ...).
	N int `json:"n,omitempty"`
	// Useful is the extraction outcome of per-document events.
	Useful bool `json:"useful,omitempty"`
	// Fired reports whether a detector decision crossed its threshold.
	Fired bool `json:"fired,omitempty"`
	// Val is an event-specific statistic (angle, footrule, support size).
	Val float64 `json:"val,omitempty"`
	// Dur is the event's duration in nanoseconds (simulated for
	// extraction events, measured for everything else).
	Dur time.Duration `json:"dur_ns,omitempty"`
	// Added/Removed are the feature-churn counts of model updates.
	Added   int `json:"added,omitempty"`
	Removed int `json:"removed,omitempty"`
	// Span and Parent tie the event into the span tree: on span-start /
	// span-end events they are the span's own id and its parent's; on
	// other events a non-zero Span names the causally enclosing span.
	Span   int64 `json:"span,omitempty"`
	Parent int64 `json:"parent,omitempty"`
	// Attrs carries typed attributes: a span's attributes on span-end
	// events, decision evidence on detector-decision events.
	Attrs []Attr `json:"attrs,omitempty"`
	// Limit is the configured threshold an alert event was judged
	// against (alert events only).
	Limit float64 `json:"limit,omitempty"`
}

// Recorder receives the structured event trace of a run. Implementations
// must be safe for concurrent use. Hot paths should guard event
// construction with Enabled() so a disabled recorder costs nothing.
type Recorder interface {
	// Enabled reports whether Record does anything; call sites use it to
	// skip building events on the disabled path.
	Enabled() bool
	// Record appends one event to the trace.
	Record(Event)
}

type nopRecorder struct{}

func (nopRecorder) Enabled() bool { return false }
func (nopRecorder) Record(Event)  {}

// Nop returns the shared no-op recorder (the default when tracing is
// disabled).
func Nop() Recorder { return nopRecorder{} }

// JSONLRecorder writes one JSON object per event to an io.Writer. Writes
// are buffered; call Flush before reading the output. The first write
// error is retained (and reported by Flush); later events are dropped.
type JSONLRecorder struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	seq int64
	err error
}

// NewJSONLRecorder wraps w.
func NewJSONLRecorder(w io.Writer) *JSONLRecorder {
	bw := bufio.NewWriter(w)
	return &JSONLRecorder{bw: bw, enc: json.NewEncoder(bw)}
}

// Enabled implements Recorder.
func (r *JSONLRecorder) Enabled() bool { return true }

// Record implements Recorder. Events arriving without a sequence number
// are stamped with the recorder's own numbering; events already stamped
// upstream (by a Tee fanning one run out to several sinks) keep their
// Seq and T, so all sinks agree on the numbering.
func (r *JSONLRecorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if e.Seq == 0 {
		r.seq++
		e.Seq = r.seq
	} else if e.Seq > r.seq {
		r.seq = e.Seq
	}
	if e.T == 0 {
		e.T = nowUnixNano()
	}
	r.err = r.enc.Encode(e)
}

// Flush drains the buffer and returns the first error seen.
func (r *JSONLRecorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	return r.bw.Flush()
}

// MemRecorder retains events in memory; tests and in-process consumers
// use it instead of parsing JSONL output.
type MemRecorder struct {
	mu     sync.Mutex
	seq    int64
	events []Event
}

// Enabled implements Recorder.
func (r *MemRecorder) Enabled() bool { return true }

// Record implements Recorder. Like JSONLRecorder.Record, it preserves
// Seq/T stamps assigned upstream by a Tee.
func (r *MemRecorder) Record(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e.Seq == 0 {
		r.seq++
		e.Seq = r.seq
	} else if e.Seq > r.seq {
		r.seq = e.Seq
	}
	if e.T == 0 {
		e.T = nowUnixNano()
	}
	r.events = append(r.events, e)
}

// Events returns a snapshot of the recorded events.
func (r *MemRecorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// nowUnixNano is the single wall-clock read of the recorder layer.
func nowUnixNano() int64 { return time.Now().UnixNano() }

// FileRecorder is a JSONLRecorder bound to a file it owns: Close
// flushes the trace and closes the file, returning the first error
// seen, so CLIs get a single lifecycle call that is correct on every
// exit path (success, pipeline error, or trace-write failure).
type FileRecorder struct {
	*JSONLRecorder
	f      durable.File
	closed bool
}

// CreateTrace creates (truncating) the trace file at path and returns a
// recorder writing to it.
func CreateTrace(path string) (*FileRecorder, error) {
	return CreateTraceFS(nil, path)
}

// CreateTraceFS is CreateTrace through an injectable filesystem, so the
// chaos harness and fault-injection tests can attack the trace's write
// path; a nil FS selects the real one.
func CreateTraceFS(fsys durable.FS, path string) (*FileRecorder, error) {
	f, err := durable.OpenTrunc(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("obs: create trace: %w", err)
	}
	return &FileRecorder{JSONLRecorder: NewJSONLRecorder(f), f: f}, nil
}

// Close flushes buffered events, syncs the file to stable storage, and
// closes it. The fsync matters on the postmortem exit paths (SIGQUIT,
// watchdog-triggered dumps): the trace a crash bundle will be joined
// against must survive the exit that produced the bundle. Repeated
// calls are no-ops.
func (r *FileRecorder) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.Flush()
	if scErr := durable.SyncClose(r.f); err == nil {
		err = scErr
	}
	return err
}

// ReadEvents parses a JSONL trace back into events.
func ReadEvents(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for {
		var e Event
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("obs: trace record %d: %w", len(out)+1, err)
		}
		if e.Kind == "" {
			return nil, fmt.Errorf("obs: trace record %d: missing kind", len(out)+1)
		}
		out = append(out, e)
	}
}

// ReadEventsPartial parses a JSONL trace like ReadEvents, but tolerates
// a truncated final record — the usual shape of a trace whose writer was
// killed mid-run (or mid-write). A final line that is malformed JSON or
// lacks a kind is dropped; a malformed record with complete records
// after it is still an error, because that is corruption, not
// truncation.
func ReadEventsPartial(r io.Reader) ([]Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	var out []Event
	if _, err := durable.ScanTornTail(data, func(line int, raw []byte) error {
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return fmt.Errorf("obs: trace record %d: %w", line, err)
		}
		if e.Kind == "" {
			return fmt.Errorf("obs: trace record %d: missing kind", line)
		}
		out = append(out, e)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// PhaseTotals folds a trace's per-event durations into the four CPU-time
// accounts of metrics.TimeAccount — "extraction", "ranking",
// "detection", "training" — plus their sum under "total". Run-finished
// events are excluded (their Dur is already the whole-run total).
func PhaseTotals(events []Event) map[string]time.Duration {
	totals := map[string]time.Duration{
		AccountExtraction: 0, AccountRanking: 0, AccountDetection: 0, AccountTraining: 0,
	}
	for _, e := range events {
		switch e.Kind {
		case KindSampleLabelled, KindDocExtracted:
			totals[AccountExtraction] += e.Dur
		case KindRankFinished:
			totals[AccountRanking] += e.Dur
		case KindModelUpdated:
			totals[AccountTraining] += e.Dur
		case KindPhase:
			switch e.Name {
			case PhaseInitTrain:
				totals[AccountTraining] += e.Dur
			case PhaseDetectorPrime, PhaseDetection:
				totals[AccountDetection] += e.Dur
			case PhaseStrategyObserve:
				totals[AccountRanking] += e.Dur
			}
		}
	}
	totals[AccountTotal] = totals[AccountExtraction] + totals[AccountRanking] +
		totals[AccountDetection] + totals[AccountTraining]
	return totals
}

// Instrumentable is implemented by components (rankers, update
// detectors, oracles) that can attach themselves to a registry, a
// recorder and a span tracer. The pipeline instruments its strategy,
// detector and oracle when observation is requested, passing its tracer
// (nil when tracing is off) so their spans and span-linked events nest
// under its current scope; un-instrumented components pay nothing.
type Instrumentable interface {
	Instrument(reg *Registry, rec Recorder, tr *Tracer)
}
