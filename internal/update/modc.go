package update

import (
	"math"
	"math/rand"

	"adaptiverank/internal/obs"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/vector"
)

// ModC is the second update-detection technique of Section 3.2: it keeps a
// shadow copy of the live ranking model, trains the shadow with a fraction
// Rho of the recently processed documents, and triggers an update when the
// angle between the live and shadow weight vectors exceeds AlphaDeg.
type ModC struct {
	// Rho is the fraction of processed documents fed to the shadow model
	// (0.1 in the paper's configuration).
	Rho float64
	// AlphaDeg is the trigger angle in degrees (5 for RSVM-IE, 30 for
	// BAgg-IE in the paper's configuration).
	AlphaDeg float64

	live   ranking.Ranker // the pipeline's live model (not trained here)
	shadow ranking.Ranker
	rng    *rand.Rand

	// The live model only changes at updates (followed by Reset) and the
	// shadow only changes when a rho-sampled document trains it, so the
	// angle is cached and recomputed lazily.
	liveSnap  *vector.Weights
	angle     float64
	dirty     bool
	snapDirty bool
	// shadowNNZ caches the shadow support size alongside the angle, so
	// decision evidence does not rebuild the shadow's summed weight
	// vector (BAgg allocates one per Model call) on every observation.
	shadowNNZ int

	// Observability hooks, nil/disabled until Instrument is called.
	obsAngle *obs.Histogram
	rec      obs.Recorder
	tr       *obs.Tracer
}

// NewModC builds the detector around the live ranker. The live ranker is
// only read (its Model and Clone); the pipeline remains the sole trainer
// of the live model.
func NewModC(live ranking.Ranker, rho, alphaDeg float64, seed int64) *ModC {
	if rho <= 0 {
		rho = 0.1
	}
	if alphaDeg <= 0 {
		alphaDeg = 5
	}
	return &ModC{
		Rho:       rho,
		AlphaDeg:  alphaDeg,
		live:      live,
		shadow:    live.Clone(),
		rng:       rand.New(rand.NewSource(seed)),
		snapDirty: true,
		dirty:     true,
	}
}

// Name implements Detector.
func (m *ModC) Name() string { return "Mod-C" }

// AngleBuckets are the histogram bounds for live/shadow angles, in
// degrees: fine-grained below the usual 5° trigger, coarse above.
func AngleBuckets() []float64 {
	return []float64{0.5, 1, 2, 3, 5, 7.5, 10, 15, 20, 30, 45, 60, 90}
}

// Instrument implements obs.Instrumentable: every decision records the
// live/shadow cosine angle into a histogram and, when tracing, emits a
// detector-decision event carrying the angle and the trigger outcome.
// Decision events are stamped with the tracer's current scope (the
// pipeline's "detect" span), tying each decision into the span tree
// causally.
func (m *ModC) Instrument(reg *obs.Registry, rec obs.Recorder, tr *obs.Tracer) {
	m.obsAngle = reg.Histogram(obs.MetricUpdateModCAngleDegrees, AngleBuckets())
	m.rec = rec
	m.tr = tr
}

// Angle returns the current angle between live and shadow models, in
// degrees (0 when either model is still empty).
func (m *ModC) Angle() float64 {
	if !m.dirty {
		return m.angle
	}
	if m.snapDirty {
		m.liveSnap = m.live.Model()
		m.snapDirty = false
	}
	sw := m.shadow.Model()
	m.shadowNNZ = 0
	if sw != nil {
		m.shadowNNZ = sw.NNZ()
	}
	m.angle = 0
	switch {
	case m.liveSnap == nil || sw == nil:
		// Non-linear or model-less ranker: nothing to compare.
	case m.liveSnap.NNZ() == 0 && sw.NNZ() > 0:
		// The live model is still empty but the shadow has learned
		// something: maximal divergence — the update is overdue.
		m.angle = 90
	case m.liveSnap.NNZ() == 0 || sw.NNZ() == 0:
		// Both empty (or only the shadow is): no evidence yet.
	default:
		cos := m.liveSnap.Cosine(sw)
		if cos > 1 {
			cos = 1
		}
		if cos < -1 {
			cos = -1
		}
		m.angle = math.Acos(cos) * 180 / math.Pi
	}
	m.dirty = false
	return m.angle
}

// Observe implements Detector: with probability Rho the document trains the
// shadow model; the trigger fires when the live/shadow angle exceeds Alpha.
func (m *ModC) Observe(x vector.Sparse, useful bool) bool {
	trained := false
	if m.rng.Float64() < m.Rho {
		m.shadow.Learn(x, useful)
		m.shadow.Settle() // the detector's own read follows
		m.dirty = true
		trained = true
	}
	angle := m.Angle()
	fired := angle > m.AlphaDeg
	if m.obsAngle != nil {
		m.obsAngle.Observe(angle)
	}
	if m.rec != nil && m.rec.Enabled() {
		liveNNZ := 0
		if m.liveSnap != nil {
			liveNNZ = m.liveSnap.NNZ()
		}
		var shadowTrained float64
		if trained {
			shadowTrained = 1
		}
		m.rec.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: m.Name(),
			Val: angle, Fired: fired, Span: m.tr.ScopeID(),
			Attrs: []obs.Attr{
				{Key: obs.EvidenceThreshold, Num: m.AlphaDeg},
				{Key: obs.EvidenceLiveNNZ, Num: float64(liveNNZ)},
				{Key: obs.EvidenceShadowNNZ, Num: float64(m.shadowNNZ)},
				{Key: obs.EvidenceShadowTrained, Num: shadowTrained},
			}})
	}
	return fired
}

// Reset implements Detector: re-clone the (freshly updated) live model.
func (m *ModC) Reset() {
	m.shadow = m.live.Clone()
	m.snapDirty = true
	m.dirty = true
}
