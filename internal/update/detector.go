// Package update implements the update-detection techniques of Section 3.2
// — Top-K and Mod-C — plus the Wind-F and Feat-S baselines of Section 4.
// A detector watches the stream of processed, freshly-labelled documents
// and decides when updating the ranking model (and re-ranking the pending
// documents) is likely to pay off.
package update

import (
	"adaptiverank/internal/obs"
	"adaptiverank/internal/vector"
)

// Detector decides when the ranking model should be updated.
type Detector interface {
	// Name identifies the technique ("Top-K", "Mod-C", ...).
	Name() string
	// Observe is called once per processed document, with the document's
	// feature vector and its extraction outcome; it returns true when a
	// model update should be triggered now.
	Observe(x vector.Sparse, useful bool) bool
	// Reset is called right after the pipeline performs a model update,
	// so the detector can re-baseline against the refreshed model.
	Reset()
}

// WindF is the naive fixed-window baseline: it triggers an update every
// Window processed documents, regardless of content.
type WindF struct {
	Window int
	seen   int

	// Observability hooks, nil/disabled until Instrument is called.
	obsProg *obs.Histogram
	rec     obs.Recorder
	tr      *obs.Tracer
}

// NewWindF returns a fixed-window detector. The paper's configuration
// updates 50 times over the collection, i.e. Window = len(collection)/50.
func NewWindF(window int) *WindF {
	if window < 1 {
		window = 1
	}
	return &WindF{Window: window}
}

// Name implements Detector.
func (w *WindF) Name() string { return "Wind-F" }

// Instrument implements obs.Instrumentable: every decision records the
// window-progress fraction seen/Window into a histogram and, when
// tracing, emits a detector-decision event stamped with the tracer's
// current scope (see ModC) — the schedule-driven counterpart of the
// content-driven detectors' statistics, so a trace always explains a
// Wind-F fire as "the window filled".
func (w *WindF) Instrument(reg *obs.Registry, rec obs.Recorder, tr *obs.Tracer) {
	w.obsProg = reg.Histogram(obs.MetricUpdateWindFProgress,
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1})
	w.rec = rec
	w.tr = tr
}

// Observe implements Detector.
func (w *WindF) Observe(vector.Sparse, bool) bool {
	w.seen++
	fired := w.seen >= w.Window
	progress := float64(w.seen) / float64(w.Window)
	if w.obsProg != nil {
		w.obsProg.Observe(progress)
	}
	if w.rec != nil && w.rec.Enabled() {
		w.rec.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: w.Name(),
			Val: progress, Fired: fired, Span: w.tr.ScopeID(),
			Attrs: []obs.Attr{
				{Key: obs.EvidenceThreshold, Num: float64(w.Window)},
				{Key: obs.EvidenceSeen, Num: float64(w.seen)},
				{Key: obs.EvidenceWindow, Num: float64(w.Window)},
			}})
	}
	return fired
}

// Reset implements Detector.
func (w *WindF) Reset() { w.seen = 0 }
