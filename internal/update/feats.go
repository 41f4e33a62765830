package update

import (
	"adaptiverank/internal/learn"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/vector"
)

// FeatS is the feature-shifting baseline of Section 4 (after Glazer et
// al.), implemented with an online one-class SVM with a Gaussian kernel
// trained on the documents observed so far. Every CheckEvery documents it
// measures the fraction S of the recent window that falls inside the
// learned support region and triggers an update when the geometrical
// difference F = 1 - S exceeds Tau.
type FeatS struct {
	// Tau is the trigger threshold on F = 1 - S. The paper uses 0.55
	// with its one-class formulation; with our nu=0.1 online one-class
	// SVM the stationary outside-fraction is ~nu, so dev-set calibration
	// gives 0.15.
	Tau float64
	// CheckEvery is the minimum number of documents between checks (700
	// in the paper's configuration).
	CheckEvery int

	model     *learn.OneClassSVM
	window    []bool // inside/outside outcomes since the last check
	sinceLast int

	// Observability hooks, nil/disabled until Instrument is called.
	obsShift *obs.Histogram
	rec      obs.Recorder
	tr       *obs.Tracer
}

// FeatSOptions configures the detector; zero fields take the defaults
// (tau = 0.15, see FeatS.Tau; check every 700 documents as in Section 4).
type FeatSOptions struct {
	Tau        float64
	CheckEvery int
}

// The one-class model's Gaussian kernel bandwidth (Section 4's
// gamma = 0.01), its outlier fraction nu and its support budget; nu and
// the budget are implementation choices (DESIGN.md §5).
const (
	featsGamma  = 0.01
	featsNu     = 0.1
	featsBudget = 256
)

// NewFeatS builds the detector.
func NewFeatS(opts FeatSOptions) *FeatS {
	if opts.Tau == 0 {
		opts.Tau = 0.15
	}
	if opts.CheckEvery == 0 {
		opts.CheckEvery = 700
	}
	return &FeatS{
		Tau:        opts.Tau,
		CheckEvery: opts.CheckEvery,
		model:      learn.NewOneClassSVM(featsGamma, featsNu, featsBudget),
	}
}

// Name implements Detector.
func (f *FeatS) Name() string { return "Feat-S" }

// Instrument implements obs.Instrumentable: each periodic check records
// the geometrical-difference fraction F = 1 - S into a histogram and,
// when tracing, emits a detector-decision event stamped with the
// tracer's current scope (see ModC). Between checks the detector makes
// no decision, so nothing is recorded.
func (f *FeatS) Instrument(reg *obs.Registry, rec obs.Recorder, tr *obs.Tracer) {
	f.obsShift = reg.Histogram(obs.MetricUpdateFeatSShift, []float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1})
	f.rec = rec
	f.tr = tr
}

// Prime trains the one-class model on the initial sample.
func (f *FeatS) Prime(xs []vector.Sparse) {
	for _, x := range xs {
		f.model.Step(x)
	}
}

// Observe implements Detector.
func (f *FeatS) Observe(x vector.Sparse, _ bool) bool {
	inside := f.model.Inside(x)
	f.model.Step(x)
	f.window = append(f.window, inside)
	f.sinceLast++
	if f.sinceLast < f.CheckEvery {
		return false
	}
	insideCount := 0
	for _, in := range f.window {
		if in {
			insideCount++
		}
	}
	// Window state is evidence: capture it before the cadence reset below
	// erases it.
	windowLen := len(f.window)
	s := float64(insideCount) / float64(windowLen)
	f.window = f.window[:0]
	f.sinceLast = 0
	shift := 1 - s
	fired := shift > f.Tau
	if f.obsShift != nil {
		f.obsShift.Observe(shift)
	}
	if f.rec != nil && f.rec.Enabled() {
		f.rec.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: f.Name(),
			Val: shift, Fired: fired, Span: f.tr.ScopeID(),
			Attrs: []obs.Attr{
				{Key: obs.EvidenceThreshold, Num: f.Tau},
				{Key: obs.EvidenceWindow, Num: float64(windowLen)},
				{Key: obs.EvidenceInside, Num: float64(insideCount)},
				{Key: obs.EvidenceCheckEvery, Num: float64(f.CheckEvery)},
			}})
	}
	return fired
}

// Reset implements Detector: the one-class model keeps learning across
// updates; only the window restarts.
func (f *FeatS) Reset() {
	f.window = f.window[:0]
	f.sinceLast = 0
}
