package update

import (
	"math"
	"slices"

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
	// order is the side classifier's whole support in top-K order
	// (|weight| descending, then id ascending), and cur its first K
	// entries, the current top-K list; LastDistance is cur's footrule
	// from ref. All three are as of side step count curSteps: they can
	// change only when the side classifier steps (on a balanced pair) or
	// ref is re-baselined, so observations in between reuse them. Keying
	// on the step count also catches steps taken through SideModel.
	order    []vector.WeightedFeature
	cur      []vector.WeightedFeature
	curSteps int
	fr       footrule
	// touched lists, once each, the features that the steps fed since
	// the last re-order touched; mark[i] == gen marks feature i as one
	// of them. moved is the re-order's scratch list of their weights.
	touched []int32
	mark    []uint32
	gen     uint32
	moved   []vector.WeightedFeature
	// ev is the decision evidence of ref and cur (footrule.evidence),
	// computed on the first recorded decision after either list changes.
	ev topKMoves
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
		gen:      1,
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
		t.step(t.qPos[0], 1)
		t.step(t.qNeg[0], -1)
		t.qPos = t.qPos[1:]
		t.qNeg = t.qNeg[1:]
	}
}

// step trains the side classifier on x and records x's features as
// touched.
func (t *TopK) step(x vector.Sparse, y float64) {
	t.side.Step(x, y)
	for _, i := range x.Packed().Idx {
		if n := int(i) + 1; n > len(t.mark) {
			t.mark = append(t.mark, make([]uint32, n-len(t.mark))...)
		}
		if t.mark[i] != t.gen {
			t.mark[i] = t.gen
			t.touched = append(t.touched, i)
		}
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
		if !t.ev.valid {
			t.ev.entered, t.ev.left, t.ev.displaced = t.fr.evidence()
			t.ev.valid = true
		}
		t.rec.Record(obs.Event{Kind: obs.KindDetectorDecision, Name: t.Name(),
			Val: t.LastDistance, Fired: fired, Span: t.tr.ScopeID(),
			Attrs: []obs.Attr{
				{Key: obs.EvidenceThreshold, Num: t.Tau},
				{Key: obs.EvidenceK, Num: float64(t.K)},
				{Key: obs.EvidenceEntered, Num: float64(t.ev.entered)},
				{Key: obs.EvidenceLeft, Num: float64(t.ev.left)},
				{Key: obs.EvidenceDisplaced, Str: t.ev.displaced},
			}})
	}
	return fired
}

// recompute settles the side classifier, re-orders its support and
// measures the new top-K list against ref, reusing the detector's
// buffers.
func (t *TopK) recompute() {
	t.side.Settle()
	t.reorder()
	t.measure()
}

// measure takes cur's footrule from ref at the current step count.
func (t *TopK) measure() {
	t.LastDistance = t.fr.to(t.cur)
	t.curSteps = t.side.Steps()
	t.ev.valid = false
}

// reorder brings order up to date with the settled side classifier and
// cuts cur from it. A weight that no step touched since the last
// re-order went through the same map as every other untouched weight,
// |w| -> s*max(0, |w|-p) rounded, which is monotone: the untouched
// entries' previous order can only have gained ties, so an insertion
// sort from it costs about linear time. The touched features are sorted
// on their own and merged in. The result is exact whatever the touched
// set holds: the insertion sort sorts any input, and the merged list
// names each support feature at most once, so one as long as the
// support is the support in order. A feature that entered through a
// step taken via SideModel leaves it short, and a full selection
// rebuilds it.
func (t *TopK) reorder() {
	w := t.side.Weights()
	kept := t.order[:0]
	for _, f := range t.order {
		if int(f.Index) < len(t.mark) && t.mark[f.Index] == t.gen {
			continue
		}
		if v := w.At(f.Index); v != 0 {
			kept = append(kept, vector.WeightedFeature{Index: f.Index, Weight: v})
		}
	}
	for i := 1; i < len(kept); i++ {
		f, j := kept[i], i
		for ; j > 0 && before(f, kept[j-1]); j-- {
			kept[j] = kept[j-1]
		}
		kept[j] = f
	}
	t.moved = t.moved[:0]
	for _, i := range t.touched {
		if v := w.At(i); v != 0 {
			t.moved = append(t.moved, vector.WeightedFeature{Index: i, Weight: v})
		}
	}
	slices.SortFunc(t.moved, func(a, b vector.WeightedFeature) int {
		switch {
		case before(a, b):
			return -1
		case a.Index == b.Index: // the ids are distinct: a is b
			return 0
		}
		return 1
	})
	t.order = merge(kept, t.moved)
	if n := w.NNZ(); len(t.order) != n {
		t.order = w.AppendTopK(t.order[:0], n)
	}
	t.cur = t.order[:max(0, min(t.K, len(t.order)))]

	t.touched = t.touched[:0]
	if t.gen++; t.gen == 0 { // wrapped: stale marks would read as touched
		clear(t.mark)
		t.gen = 1
	}
}

// before reports whether a precedes b in Weights.TopK's order: larger
// |weight| first, then smaller id.
func before(a, b vector.WeightedFeature) bool {
	av, bv := math.Abs(a.Weight), math.Abs(b.Weight)
	return av > bv || av == bv && a.Index < b.Index
}

// merge merges the sorted b into the sorted dst, from the back so that
// it works in dst's own array, and returns the merged slice.
func merge(dst, b []vector.WeightedFeature) []vector.WeightedFeature {
	i := len(dst) - 1
	dst = slices.Grow(dst, len(b))[:len(dst)+len(b)]
	for j, k := len(b)-1, len(dst)-1; j >= 0; k-- {
		if i >= 0 && before(b[j], dst[i]) {
			dst[k], i = dst[i], i-1
		} else {
			dst[k], j = b[j], j-1
		}
	}
	return dst
}

// topKMoves is the decision evidence, cached while valid.
type topKMoves struct {
	entered, left int
	displaced     string
	valid         bool
}

// Reset implements Detector: re-baseline the reference list to the
// current top-K list.
func (t *TopK) Reset() {
	t.side.Settle()
	t.reorder()
	t.ref = append(t.ref[:0], t.cur...)
	t.fr.setRef(t.ref)
	t.measure()
}

// SideModel exposes the side classifier (used by the search-interface
// scenario diagnostics and tests).
func (t *TopK) SideModel() *learn.OnlineSVM { return t.side }
