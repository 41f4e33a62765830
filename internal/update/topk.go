package update

import (
	"fmt"
	"sort"
	"strings"

	"adaptiverank/internal/learn"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/vector"
)

// TopK is the first update-detection technique of Section 3.2: it
// maintains its own SVM-based linear classifier over the same features as
// the ranking model, and triggers an update when the weighted generalized
// Spearman's Footrule between the top-K feature list at the last update
// and the current top-K feature list exceeds tau.
type TopK struct {
	// K is the number of most influential features compared (200 in the
	// paper's configuration).
	K int
	// Tau is the footrule trigger threshold. The paper uses tau=0.5 with
	// its unnormalized footrule; our footrule normalizes weights and
	// positions into [0,1] (see Footrule), for which dev-set calibration
	// gives tau=0.2.
	Tau float64

	side *learn.OnlineSVM
	ref  []vector.WeightedFeature
	// cur is the side classifier's top-K list, and LastDistance its
	// footrule from ref, as of side step count curSteps. Both can change
	// only when the side classifier steps (on a balanced pair) or ref is
	// re-baselined, so observations in between reuse them; Reset sets
	// curSteps to -1 to force a recompute. Keying on the step count also
	// catches steps taken through SideModel.
	cur      []vector.WeightedFeature
	curSteps int
	fr       footrule
	// Label-balancing holdback queues: the raw document stream is
	// heavily skewed toward useless documents, under which an
	// L1-regularized classifier collapses to the empty model. The side
	// classifier therefore consumes one positive and one negative at a
	// time, like a BAgg-IE committee member.
	qPos, qNeg []vector.Sparse

	// LastDistance exposes the most recent footrule value for
	// diagnostics, threshold calibration, and tests.
	LastDistance float64

	// Observability hooks, nil/disabled until Instrument is called.
	obsDist *obs.Histogram
	rec     obs.Recorder
	tr      *obs.Tracer
}

// FootruleBuckets are the histogram bounds for the normalized weighted
// footrule, which lives in [0,1].
func FootruleBuckets() []float64 {
	return []float64{0.01, 0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1}
}

// TopKOptions configures the detector; zero fields take Section 4 defaults.
type TopKOptions struct {
	K   int
	Tau float64
	// LambdaAll/LambdaL2 regularize the side classifier; defaults match
	// the BAgg-IE member setting.
	LambdaAll, LambdaL2 float64
}

// NewTopK builds the detector with its independent side classifier.
func NewTopK(opts TopKOptions) *TopK {
	if opts.K == 0 {
		opts.K = 200
	}
	if opts.Tau == 0 {
		opts.Tau = 0.2
	}
	if opts.LambdaAll == 0 {
		opts.LambdaAll = 0.5
	}
	if opts.LambdaL2 == 0 {
		opts.LambdaL2 = 0.99
	}
	return &TopK{
		K:        opts.K,
		Tau:      opts.Tau,
		side:     learn.NewOnlineSVM(learn.ElasticNet{LambdaAll: opts.LambdaAll, LambdaL2: opts.LambdaL2}, true),
		curSteps: -1,
	}
}

// Name implements Detector.
func (t *TopK) Name() string { return "Top-K" }

// Instrument implements obs.Instrumentable: every decision records the
// weighted footrule distance into a histogram and, when tracing, emits a
// detector-decision event carrying the distance and the trigger outcome,
// stamped with the tracer's current scope (see ModC).
func (t *TopK) Instrument(reg *obs.Registry, rec obs.Recorder, tr *obs.Tracer) {
	t.obsDist = reg.Histogram(obs.MetricUpdateTopKFootrule, FootruleBuckets())
	t.rec = rec
	t.tr = tr
}

// Prime trains the side classifier on the initial labelled sample, then
// baselines the reference feature list.
func (t *TopK) Prime(xs []vector.Sparse, useful []bool) {
	for i, x := range xs {
		t.feed(x, useful[i])
	}
	t.Reset()
}

const topkQueueCap = 2000

// feed enqueues the example and trains the side classifier on balanced
// positive/negative pairs.
func (t *TopK) feed(x vector.Sparse, useful bool) {
	if useful {
		t.qPos = append(t.qPos, x)
		if len(t.qPos) > topkQueueCap {
			t.qPos = t.qPos[1:]
		}
	} else {
		t.qNeg = append(t.qNeg, x)
		if len(t.qNeg) > topkQueueCap {
			t.qNeg = t.qNeg[1:]
		}
	}
	for len(t.qPos) > 0 && len(t.qNeg) > 0 {
		t.side.Step(t.qPos[0], 1)
		t.side.Step(t.qNeg[0], -1)
		t.qPos = t.qPos[1:]
		t.qNeg = t.qNeg[1:]
	}
}

// Observe implements Detector: update the side classifier with the new
// document and compare top-K feature lists.
func (t *TopK) Observe(x vector.Sparse, useful bool) bool {
	t.feed(x, useful)
	if t.side.Steps() != t.curSteps {
		t.recompute()
	}
	fired := t.LastDistance > t.Tau
	if t.obsDist != nil {
		t.obsDist.Observe(t.LastDistance)
	}
	if t.rec != nil && t.rec.Enabled() {
		entered, left, displaced := topKEvidence(t.ref, t.cur)
		t.rec.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: t.Name(),
			Val: t.LastDistance, Fired: fired, Span: t.tr.ScopeID(),
			Attrs: []obs.Attr{
				{Key: obs.EvidenceThreshold, Num: t.Tau},
				{Key: obs.EvidenceK, Num: float64(t.K)},
				{Key: obs.EvidenceEntered, Num: float64(entered)},
				{Key: obs.EvidenceLeft, Num: float64(left)},
				{Key: obs.EvidenceDisplaced, Str: displaced},
			}})
	}
	return fired
}

// recompute refreshes cur and LastDistance from the side classifier's
// current weights, reusing the detector's buffers.
func (t *TopK) recompute() {
	t.side.Settle()
	t.cur = t.side.Weights().AppendTopK(t.cur[:0], t.K)
	t.LastDistance = t.fr.distance(t.ref, t.cur)
	t.curSteps = t.side.Steps()
}

// topKEvidence compares the reference and current top-K feature lists:
// how many features entered and left the list since the last baseline,
// and the most displaced features as a "index:refRank->curRank" list
// (0-based ranks, -1 for absent). Displacement is ranked by rank delta
// — absences count as a full-list move — with feature index as the
// deterministic tiebreaker.
func topKEvidence(ref, cur []vector.WeightedFeature) (entered, left int, displaced string) {
	refPos := make(map[int32]int, len(ref))
	for p, f := range ref {
		refPos[f.Index] = p
	}
	maxMove := len(ref)
	if len(cur) > maxMove {
		maxMove = len(cur)
	}
	type move struct {
		index    int32
		from, to int
		delta    int
	}
	var moves []move
	for p, f := range cur {
		rp, ok := refPos[f.Index]
		if !ok {
			entered++
			moves = append(moves, move{index: f.Index, from: -1, to: p, delta: maxMove})
			continue
		}
		delete(refPos, f.Index)
		if d := rp - p; d != 0 {
			if d < 0 {
				d = -d
			}
			moves = append(moves, move{index: f.Index, from: rp, to: p, delta: d})
		}
	}
	left = len(refPos)
	//lint:allow detrand collection order is erased by the sort below
	for i, p := range refPos {
		moves = append(moves, move{index: i, from: p, to: -1, delta: maxMove})
	}
	sort.Slice(moves, func(a, b int) bool {
		if moves[a].delta != moves[b].delta {
			return moves[a].delta > moves[b].delta
		}
		return moves[a].index < moves[b].index
	})
	const topMoves = 5
	if len(moves) > topMoves {
		moves = moves[:topMoves]
	}
	parts := make([]string, len(moves))
	for i, m := range moves {
		parts[i] = fmt.Sprintf("%d:%d->%d", m.index, m.from, m.to)
	}
	return entered, left, strings.Join(parts, ",")
}

// Reset implements Detector: re-baseline the reference list.
func (t *TopK) Reset() {
	t.side.Settle()
	t.ref = t.side.Weights().AppendTopK(t.ref[:0], t.K)
	t.curSteps = -1
}

// SideModel exposes the side classifier (used by the search-interface
// scenario diagnostics and tests).
func (t *TopK) SideModel() *learn.OnlineSVM { return t.side }
