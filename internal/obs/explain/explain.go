// Package explain is the model-introspection substrate: it captures
// *why* the ranking behaved as it did — exact per-feature score
// attributions for sampled documents, a weight-drift timeline across
// model updates, and the structured evidence behind every detector
// fire/no-fire decision — into a crash-safe JSONL artifact and a
// bounded in-memory state served live over HTTP.
//
// Like the profiler and the flight recorder, the package is a passive
// tee: the pipeline owns the schedule and calls in; when no Explainer
// is configured the pipeline takes none of these paths, so a disabled
// run is byte-identical to an uninstrumented one (the root
// TestRunByteIdenticalExplained suite proves it). The package performs
// no wall-clock reads of its own — records are ordered by the
// documents-processed position and by upstream-stamped event times — so
// two runs of the same configuration produce logs that differ only in
// those stamps.
package explain

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"adaptiverank/internal/durable"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/vector"
)

// Options configures an Explainer.
type Options struct {
	// Dir is the directory the explain log is written into. Required;
	// created if absent.
	Dir string
	// RunID identifies the run in the log header. The Explainer never
	// reads the clock, so there is no timestamp default: callers pass
	// their suite id, or "run" is used.
	RunID string
	// Fingerprint is the configuration fingerprint recorded in the
	// header, joining the artifact to traces and profiles of the same
	// configuration.
	Fingerprint string
	// Registry receives the explain.* health counters; nil is fine.
	Registry *obs.Registry
	// FS is the filesystem the log is written through; nil selects the
	// real one. Tests inject fault schedules (durable/faultfs) here.
	FS durable.FS

	// AttribTopN is how many top-ranked documents the pipeline
	// attributes per ranking pass (default 8). The Explainer only
	// carries the knob; the pipeline applies it.
	AttribTopN int
}

// topFeatures bounds the top-weight and top-mover lists on each
// snapshot.
const topFeatures = 15

// Live-state bounds for the HTTP handler: the newest records of each
// kind it serves. The log keeps everything.
const (
	keepSnapshots    = 512
	keepAttributions = 512
	keepDecisions    = 2048
)

// Explainer owns one run's introspection state: the JSONL log and the
// bounded live views behind Handler. All methods are safe for
// concurrent use; nil *Explainer is inert for every method, so callers
// can thread an unconfigured explainer without guards.
type Explainer struct {
	opts Options

	cSnaps   *obs.Counter
	cAttribs *obs.Counter
	cDecs    *obs.Counter
	cErrs    *obs.Counter

	// pos is the documents-processed logical clock, advanced by the
	// pipeline; decision records are stamped from it outside any lock.
	pos atomic.Int64

	lw *durable.JSONL

	mu        sync.Mutex
	closed    bool
	updates   int
	initW     *vector.Weights
	prevW     *vector.Weights
	snapshots []Record
	attribs   []Record
	decisions []Record
}

// New creates the explain directory, opens the log, and writes the
// header record.
func New(opts Options) (*Explainer, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("explain: Options.Dir is required")
	}
	if opts.RunID == "" {
		opts.RunID = "run"
	}
	if opts.AttribTopN <= 0 {
		opts.AttribTopN = 8
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("explain: %w", err)
	}
	lw, err := newLogWriter(opts.FS, opts.Dir, Record{
		RunID:       opts.RunID,
		Fingerprint: opts.Fingerprint,
		Go:          runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, fmt.Errorf("explain: %w", err)
	}
	return &Explainer{
		opts:     opts,
		lw:       lw,
		cSnaps:   opts.Registry.Counter(obs.MetricExplainSnapshots),
		cAttribs: opts.Registry.Counter(obs.MetricExplainAttributions),
		cDecs:    opts.Registry.Counter(obs.MetricExplainDecisions),
		cErrs:    opts.Registry.Counter(obs.MetricExplainErrors),
	}, nil
}

// AttribTopN reports how many top-ranked documents the pipeline should
// attribute per ranking pass (0 for a nil Explainer, disabling
// attribution).
func (e *Explainer) AttribTopN() int {
	if e == nil {
		return 0
	}
	return e.opts.AttribTopN
}

// Advance moves the documents-processed logical clock; the pipeline
// calls it once per processed document so decision records carry the
// position they were made at.
func (e *Explainer) Advance(pos int) {
	if e == nil {
		return
	}
	e.pos.Store(int64(pos))
}

// Recorder returns a passive event sink that persists detector-decision
// events — with their evidence attributes — into the explain log. Tee
// it with the run's other sinks; all other event kinds pass through
// untouched (i.e. are ignored here and handled by those sinks).
func (e *Explainer) Recorder() obs.Recorder {
	if e == nil {
		return nil
	}
	return sink{e}
}

type sink struct{ e *Explainer }

// Enabled implements obs.Recorder.
func (s sink) Enabled() bool { return true }

// Record implements obs.Recorder.
func (s sink) Record(ev obs.Event) {
	if ev.Kind != obs.KindDetectorDecision {
		return
	}
	s.e.recordDecision(ev)
}

func (e *Explainer) recordDecision(ev obs.Event) {
	evidence := make([]obs.Attr, len(ev.Attrs))
	copy(evidence, ev.Attrs)
	r := Record{
		Kind:     RecordDecision,
		Detector: ev.Name,
		Val:      ev.Val,
		Fired:    ev.Fired,
		Span:     ev.Span,
		Seq:      ev.Seq,
		T:        ev.T,
		Pos:      int(e.pos.Load()),
		Evidence: evidence,
	}
	e.append(r)
	e.mu.Lock()
	e.decisions = appendBounded(e.decisions, r, keepDecisions)
	e.mu.Unlock()
	e.cDecs.Inc()
}

// RecordSnapshot captures the model weight vector at a train-init or
// train-update span: support size, norms, the top-weighted features
// (resolved to names via name, which may be nil), drift vs the previous
// and the initial snapshot, the top weight movers, and the pipeline's
// support-churn counts. The vector is cloned; callers may keep
// mutating w.
//
// A train-init snapshot starts a fresh timeline segment: a long-lived
// Explainer (an experiments suite, a benchmark loop) observes many
// pipeline runs, each with its own feature index space, so drift or
// movers computed across that boundary would resolve one run's indices
// against another run's featurizer.
func (e *Explainer) RecordSnapshot(stage string, span int64, pos int, w *vector.Weights, name func(int32) string, added, removed int) {
	if e == nil || w == nil {
		return
	}
	cur := w.Clone()

	// Swap the drift baselines under the lock, then resolve names and
	// compute drift outside it: name reaches into the caller's
	// featurizer, and the baselines are never mutated once swapped out.
	e.mu.Lock()
	if stage == StageTrainInit {
		e.initW, e.prevW, e.updates = nil, nil, 0
	}
	prev, init := e.prevW, e.initW
	update := e.updates
	e.updates++
	if init == nil {
		e.initW = cur.Clone()
	}
	e.prevW = cur
	e.mu.Unlock()

	r := Record{
		Kind:    RecordSnapshot,
		Stage:   stage,
		Span:    span,
		Pos:     pos,
		Update:  update,
		NNZ:     cur.NNZ(),
		L1:      cur.L1(),
		L2:      cur.L2(),
		Top:     toFeatures(cur.TopK(topFeatures), name),
		Added:   added,
		Removed: removed,
	}
	if prev != nil {
		d := vector.Drift(prev, cur)
		r.DriftPrev = &d
		r.Movers = toFeatures(vector.TopMovers(prev, cur, topFeatures), name)
	}
	if init != nil {
		d := vector.Drift(init, cur)
		r.DriftInit = &d
	}
	e.append(r)
	e.mu.Lock()
	e.snapshots = appendBounded(e.snapshots, r, keepSnapshots)
	e.mu.Unlock()
	e.cSnaps.Inc()
}

// RecordAttribution persists one document's score attribution. The
// caller (the pipeline) fills the attribution fields — Doc, Rank, Span,
// Pos, Score, Logistic, Members — having already resolved feature names;
// Kind is set here.
func (e *Explainer) RecordAttribution(r Record) {
	if e == nil {
		return
	}
	r.Kind = RecordAttribution
	e.append(r)
	e.mu.Lock()
	e.attribs = appendBounded(e.attribs, r, keepAttributions)
	e.mu.Unlock()
	e.cAttribs.Inc()
}

// append writes r to the log, counting (but otherwise swallowing)
// write errors: introspection must never fail the run. The first error
// is still surfaced by Close.
func (e *Explainer) append(r Record) {
	if err := e.lw.Append(r); err != nil {
		e.cErrs.Inc()
	}
}

// State reports the live record counts (snapshots, attributions,
// decisions) — retained, i.e. after the keep bounds; used by tests and
// the HTTP root.
func (e *Explainer) State() (snapshots, attributions, decisions int) {
	if e == nil {
		return 0, 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(newest(e.snapshots, keepSnapshots)), len(newest(e.attribs, keepAttributions)),
		len(newest(e.decisions, keepDecisions))
}

// Close flushes and fsyncs the log. Idempotent; returns the first
// write error seen over the Explainer's lifetime.
func (e *Explainer) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	return e.lw.Close()
}

// toFeatures resolves a weighted-feature list to named log features.
func toFeatures(fs []vector.WeightedFeature, name func(int32) string) []Feature {
	if len(fs) == 0 {
		return nil
	}
	out := make([]Feature, len(fs))
	for i, f := range fs {
		out[i] = Feature{Index: f.Index, Weight: f.Weight}
		if name != nil {
			out[i].Name = name(f.Index)
		}
	}
	return out
}

// appendBounded appends r to s, which retains its newest keep records
// (see newest). s grows to 2×keep before the newest keep shift back to
// the front, so an append costs O(1) amortized instead of O(keep). The
// shift, rather than a reslice, keeps the backing array from pinning
// every record ever captured.
func appendBounded(s []Record, r Record, keep int) []Record {
	if len(s) >= 2*keep {
		n := copy(s, s[len(s)-keep:])
		clear(s[n:])
		s = s[:n]
	}
	return append(s, r)
}

// newest returns the records s retains: its newest keep, in order.
func newest(s []Record, keep int) []Record { return s[max(0, len(s)-keep):] }
