package update

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"adaptiverank/internal/ranking"
	"adaptiverank/internal/vector"
)

func feats(pairs ...interface{}) vector.Sparse {
	m := make(map[int32]float64)
	for i := 0; i+1 < len(pairs); i += 2 {
		m[int32(pairs[i].(int))] = float64(pairs[i+1].(int))
	}
	return vector.FromCounts(m).Normalize()
}

func wf(idx int, w float64) vector.WeightedFeature {
	return vector.WeightedFeature{Index: int32(idx), Weight: w}
}

func TestFootruleIdentityIsZero(t *testing.T) {
	a := []vector.WeightedFeature{wf(1, 3), wf(2, 2), wf(3, 1)}
	if d := Footrule(a, a); d != 0 {
		t.Errorf("Footrule(a,a) = %g, want 0", d)
	}
}

func TestFootruleSymmetric(t *testing.T) {
	a := []vector.WeightedFeature{wf(1, 3), wf(2, 2)}
	b := []vector.WeightedFeature{wf(2, 4), wf(5, 1)}
	if math.Abs(Footrule(a, b)-Footrule(b, a)) > 1e-12 {
		t.Error("Footrule must be symmetric")
	}
}

func TestFootruleDisjointListsLarge(t *testing.T) {
	a := []vector.WeightedFeature{wf(1, 1), wf(2, 1)}
	b := []vector.WeightedFeature{wf(8, 1), wf(9, 1)}
	same := Footrule(a, []vector.WeightedFeature{wf(1, 1), wf(2, 1)})
	if d := Footrule(a, b); d <= same {
		t.Errorf("disjoint distance %g must exceed identical distance %g", d, same)
	}
}

func TestFootruleSwapSmallerThanReplacement(t *testing.T) {
	base := []vector.WeightedFeature{wf(1, 5), wf(2, 4), wf(3, 3)}
	swapped := []vector.WeightedFeature{wf(2, 5), wf(1, 4), wf(3, 3)}
	replaced := []vector.WeightedFeature{wf(9, 5), wf(8, 4), wf(7, 3)}
	if Footrule(base, swapped) >= Footrule(base, replaced) {
		t.Error("swapping two features must move the metric less than replacing all of them")
	}
}

func TestFootruleEmptyLists(t *testing.T) {
	if d := Footrule(nil, nil); d != 0 {
		t.Errorf("Footrule(nil,nil) = %g, want 0", d)
	}
}

// referenceFootrule computes Footrule directly from maps keyed by
// feature: halves accumulate per feature in list order (a, then b), and
// the distance folds in ascending id. It is the bitwise reference for the
// prefix-table merge.
func referenceFootrule(a, b []vector.WeightedFeature) float64 {
	prefix := func(list []vector.WeightedFeature) (map[int32]float64, float64) {
		pos := make(map[int32]float64, len(list))
		var cum float64
		for _, f := range list {
			cum += math.Abs(f.Weight)
			pos[f.Index] = cum
		}
		return pos, cum
	}
	posA, totalA := prefix(a)
	posB, totalB := prefix(b)
	if totalA == 0 && totalB == 0 {
		return 0
	}
	universe := make(map[int32]float64)
	var wTotal float64
	for _, f := range a {
		universe[f.Index] += math.Abs(f.Weight) / 2
		wTotal += math.Abs(f.Weight) / 2
	}
	for _, f := range b {
		universe[f.Index] += math.Abs(f.Weight) / 2
		wTotal += math.Abs(f.Weight) / 2
	}
	if wTotal == 0 {
		return 0
	}
	idxs := make([]int32, 0, len(universe))
	for idx := range universe {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	var d float64
	for _, idx := range idxs {
		w := universe[idx]
		pa, pb := 1.0, 1.0
		if totalA > 0 {
			if p, ok := posA[idx]; ok {
				pa = p / totalA
			}
		}
		if totalB > 0 {
			if p, ok := posB[idx]; ok {
				pb = p / totalB
			}
		}
		d += (w / wTotal) * math.Abs(pa-pb)
	}
	return d
}

// TestQuickFootruleBounded draws small integer-weighted lists over 20 ids,
// so ties, overlapping, disjoint and empty lists all occur, and checks the
// distance lies in [0,1] and equals the reference bit for bit — both
// through Footrule and through one evaluator reused across trials, whose
// tables hold the previous trial's entries.
func TestQuickFootruleBounded(t *testing.T) {
	var fr footrule
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gen := func() []vector.WeightedFeature {
			n := r.Intn(8)
			out := make([]vector.WeightedFeature, 0, n)
			w := vector.NewWeights()
			for i := 0; i < n; i++ {
				w.Set(int32(r.Intn(20)), float64(1+r.Intn(9)))
			}
			out = append(out, w.TopK(n)...)
			return out
		}
		a, b := gen(), gen()
		d, want := Footrule(a, b), referenceFootrule(a, b)
		if math.Float64bits(d) != math.Float64bits(want) {
			t.Logf("Footrule(%v, %v) = %v, reference %v", a, b, d, want)
			return false
		}
		if reused := fr.distance(a, b); math.Float64bits(reused) != math.Float64bits(want) {
			t.Logf("reused evaluator on (%v, %v) = %v, reference %v", a, b, reused, want)
			return false
		}
		return d >= 0 && d <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindFTriggersOnSchedule(t *testing.T) {
	w := NewWindF(3)
	x := feats(0, 1)
	triggers := 0
	for i := 0; i < 9; i++ {
		if w.Observe(x, false) {
			triggers++
			w.Reset()
		}
	}
	if triggers != 3 {
		t.Errorf("triggers = %d over 9 docs with window 3, want 3", triggers)
	}
}

func TestWindFMinimumWindow(t *testing.T) {
	w := NewWindF(0)
	if w.Window != 1 {
		t.Errorf("window = %d, want clamped to 1", w.Window)
	}
}

func TestTopKTriggersOnDistributionShift(t *testing.T) {
	tk := NewTopK(TopKOptions{K: 50, Tau: 0.2})
	r := rand.New(rand.NewSource(1))
	mk := func(base int) vector.Sparse {
		return feats(base+r.Intn(3), 1, base+3+r.Intn(3), 1)
	}
	// Prime on distribution A.
	var xs []vector.Sparse
	var ys []bool
	for i := 0; i < 200; i++ {
		xs = append(xs, mk(0))
		ys = append(ys, i%2 == 0)
	}
	tk.Prime(xs, ys)
	// Stream from a different distribution: useful docs now carry
	// different features, so the top-K list must shift.
	triggered := false
	for i := 0; i < 400 && !triggered; i++ {
		triggered = tk.Observe(mk(100), i%2 == 0)
	}
	if !triggered {
		t.Errorf("Top-K never triggered on a feature shift (last distance %.3f)", tk.LastDistance)
	}
}

func TestTopKStableStreamNoImmediateTrigger(t *testing.T) {
	tk := NewTopK(TopKOptions{K: 50, Tau: 0.5})
	r := rand.New(rand.NewSource(2))
	mk := func() vector.Sparse { return feats(r.Intn(3), 1, 3+r.Intn(3), 1) }
	var xs []vector.Sparse
	var ys []bool
	for i := 0; i < 300; i++ {
		xs = append(xs, mk())
		ys = append(ys, i%2 == 0)
	}
	tk.Prime(xs, ys)
	if tk.Observe(mk(), true) {
		t.Errorf("stationary stream triggered immediately (distance %.3f)", tk.LastDistance)
	}
}

// topKStream returns a labelled document source for Top-K tests:
// useful documents carry features from the five ids starting at base,
// useless ones from ids 40–44, and both one noise id from 50–59.
func topKStream(r *rand.Rand) func(useful bool, base int) vector.Sparse {
	return func(useful bool, base int) vector.Sparse {
		lo := 40
		if useful {
			lo = base
		}
		return feats(lo+r.Intn(5), 1, lo+r.Intn(5), 1, 50+r.Intn(10), 1)
	}
}

// primedTopK returns a Top-K detector primed on a balanced sample of
// topKStream documents, and the stream.
func primedTopK(r *rand.Rand, k int) (*TopK, func(useful bool, base int) vector.Sparse) {
	tk := NewTopK(TopKOptions{K: k, Tau: 0.2})
	doc := topKStream(r)
	var xs []vector.Sparse
	var ys []bool
	for i := 0; i < 60; i++ {
		xs = append(xs, doc(i%2 == 0, 0))
		ys = append(ys, i%2 == 0)
	}
	tk.Prime(xs, ys)
	return tk, doc
}

// TestTopKCachedDistanceMatchesRecompute drives one detector through
// balanced stretches (the side classifier steps) and one-sided runs (it
// does not), with a Reset after every fire and at fixed points, and steps
// taken directly through SideModel between observations. After every
// observation the distance must equal, bit for bit, the footrule of the
// last reference against the side classifier's current top-K computed
// from scratch, and the decision must be that distance against tau.
func TestTopKCachedDistanceMatchesRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tk, doc := primedTopK(r, 10)
	ref := tk.SideModel().Weights().TopK(tk.K)
	var unstepped, direct, fires, resets int
	for i := 0; i < 1500; i++ {
		base := 5 * (i / 250) // the useful region drifts, so the top-K moves
		// 20-observation blocks alternate balanced labels with one-sided
		// runs of useless documents, which only fill the holdback queue.
		useful := (i/20)%2 == 0 && i%2 == 0
		if i%9 == 4 {
			tk.SideModel().Step(doc(i%2 == 0, base), float64(1-2*(i%2)))
			direct++
		}
		before := tk.SideModel().Steps()
		fired := tk.Observe(doc(useful, base), useful)
		if tk.SideModel().Steps() == before {
			unstepped++
		}
		want := referenceFootrule(ref, tk.SideModel().Weights().TopK(tk.K))
		if math.Float64bits(tk.LastDistance) != math.Float64bits(want) {
			t.Fatalf("observation %d: LastDistance = %v, recomputed %v", i, tk.LastDistance, want)
		}
		if fired != (tk.LastDistance > tk.Tau) {
			t.Fatalf("observation %d: fired = %v at distance %v, tau %v", i, fired, tk.LastDistance, tk.Tau)
		}
		if fired {
			fires++
		}
		if fired || i%50 == 49 {
			tk.Reset()
			resets++
			ref = tk.SideModel().Weights().TopK(tk.K)
		}
	}
	if unstepped == 0 || fires == 0 {
		t.Fatalf("stream exercised %d unstepped observations and %d fires; want both > 0", unstepped, fires)
	}
	t.Logf("%d unstepped observations, %d direct steps, %d fires, %d resets", unstepped, direct, fires, resets)
}

// TestTopKRecomputeAllocs pins the recompute — top-K selection into the
// detector's list buffer plus the footrule over its own tables — at zero
// allocations once the buffers are warm.
func TestTopKRecomputeAllocs(t *testing.T) {
	tk, _ := primedTopK(rand.New(rand.NewSource(4)), 10)
	if nnz := tk.SideModel().Weights().NNZ(); nnz <= tk.K {
		t.Fatalf("side model holds %d features; want more than K=%d so selection discards some", nnz, tk.K)
	}
	tk.recompute()
	if n := testing.AllocsPerRun(100, tk.recompute); n != 0 {
		t.Errorf("Top-K recompute allocates %.2f times per run, want 0", n)
	}
}

func TestModCTriggersWhenShadowDiverges(t *testing.T) {
	live := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 3})
	// Give the live model some initial shape.
	for i := 0; i < 40; i++ {
		live.Learn(feats(0, 1, 1, 1), true)
		live.Learn(feats(5, 1, 6, 1), false)
	}
	m := NewModC(live, 1.0, 5, 4) // rho=1: every doc trains the shadow
	triggered := false
	for i := 0; i < 300 && !triggered; i++ {
		// New evidence flips the sign of the informative features.
		triggered = m.Observe(feats(5, 1, 6, 1), true)
		if !triggered {
			triggered = m.Observe(feats(0, 1, 1, 1), false)
		}
	}
	if !triggered {
		t.Errorf("Mod-C never triggered on contradictory evidence (angle %.2f)", m.Angle())
	}
}

func TestModCEmptyLiveModelTriggersOnEvidence(t *testing.T) {
	live := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 5})
	m := NewModC(live, 1.0, 5, 6)
	triggered := false
	for i := 0; i < 50 && !triggered; i++ {
		m.Observe(feats(1, 1), false)
		triggered = m.Observe(feats(0, 1, 1, 1), true)
	}
	if !triggered {
		t.Error("Mod-C with an empty live model must trigger once the shadow learns")
	}
}

func TestModCResetClearsAngle(t *testing.T) {
	live := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 7})
	for i := 0; i < 20; i++ {
		live.Learn(feats(0, 1), true)
		live.Learn(feats(5, 1), false)
	}
	m := NewModC(live, 1.0, 5, 8)
	for i := 0; i < 50; i++ {
		m.Observe(feats(5, 1), true)
	}
	m.Reset()
	if a := m.Angle(); a != 0 {
		t.Errorf("angle after Reset = %.2f, want 0 (shadow == live)", a)
	}
}

func TestFeatSCadence(t *testing.T) {
	f := NewFeatS(FeatSOptions{CheckEvery: 10, Tau: 0.01})
	// Prime on one region, then stream from another: after 10 docs the
	// check fires and the outside fraction exceeds tau.
	var xs []vector.Sparse
	for i := 0; i < 50; i++ {
		xs = append(xs, feats(0, 1, 1, 1))
	}
	f.Prime(xs)
	trigAt := -1
	for i := 0; i < 30; i++ {
		if f.Observe(feats(40+i%3, 1), false) {
			trigAt = i
			break
		}
	}
	if trigAt == -1 {
		t.Fatal("Feat-S never triggered on a shifted stream")
	}
	if trigAt < 9 {
		t.Errorf("Feat-S triggered at doc %d, before the %d-doc cadence", trigAt, 10)
	}
}

// TestFeatSDecisionDigest pins Feat-S's one-class model (the kernel's γ,
// ν and the support budget) as NewFeatS builds it by default: over a
// fixed stream that drifts to new vocabulary, the decision value f(x) of
// every document before it is observed, and every fire, hash to a
// constant. The stream outgrows the 256-vector support budget and fires.
func TestFeatSDecisionDigest(t *testing.T) {
	f := NewFeatS(FeatSOptions{})
	r := rand.New(rand.NewSource(5))
	doc := func(base int) vector.Sparse {
		m := map[int32]float64{}
		for j := 0; j < 6; j++ {
			m[int32(base+r.Intn(40))]++
		}
		return vector.FromCounts(m).Normalize()
	}
	var prime []vector.Sparse
	for i := 0; i < 100; i++ {
		prime = append(prime, doc(0))
	}
	f.Prime(prime)
	h := sha256.New()
	fires := 0
	for i := 0; i < 3500; i++ {
		x := doc(20 * (i / 700))
		binary.Write(h, binary.LittleEndian, math.Float64bits(f.model.Decision(x)))
		fired := f.Observe(x, false)
		binary.Write(h, binary.LittleEndian, fired)
		if fired {
			fires++
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d fires, %d support vectors: digest %s", fires, f.model.SupportSize(), got)
	if n := f.model.SupportSize(); n != 256 || fires == 0 {
		t.Errorf("%d support vectors and %d fires, want the budget of 256 and a fire", n, fires)
	}
	if want := "32310f156f8d182c00ac71279915a12bff166caad54b4f03a0d5d0dd728bcc4a"; got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

func TestDetectorNames(t *testing.T) {
	live := ranking.NewRSVMIE(ranking.RSVMOptions{})
	for name, d := range map[string]Detector{
		"Wind-F": NewWindF(5),
		"Top-K":  NewTopK(TopKOptions{}),
		"Mod-C":  NewModC(live, 0.1, 5, 1),
		"Feat-S": NewFeatS(FeatSOptions{}),
	} {
		if d.Name() != name {
			t.Errorf("Name = %q, want %q", d.Name(), name)
		}
	}
}

func TestTopKDefaults(t *testing.T) {
	tk := NewTopK(TopKOptions{})
	if tk.K != 200 || tk.Tau != 0.2 {
		t.Errorf("defaults = {K:%d, Tau:%g}, want {200, 0.2}", tk.K, tk.Tau)
	}
}

func TestTopKQueuesBounded(t *testing.T) {
	tk := NewTopK(TopKOptions{K: 10})
	x := feats(0, 1)
	// A one-sided stream must not grow the holdback queue without bound.
	for i := 0; i < topkQueueCap+500; i++ {
		tk.Observe(x, false)
	}
	if len(tk.qNeg) > topkQueueCap {
		t.Errorf("negative queue grew to %d, cap is %d", len(tk.qNeg), topkQueueCap)
	}
	if len(tk.qPos) != 0 {
		t.Errorf("positive queue has %d entries with no positives", len(tk.qPos))
	}
}

func TestModCRhoZeroDefaultsApplied(t *testing.T) {
	live := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 20})
	m := NewModC(live, 0, 0, 21)
	if m.Rho != 0.1 || m.AlphaDeg != 5 {
		t.Errorf("defaults = {Rho:%g, Alpha:%g}, want {0.1, 5}", m.Rho, m.AlphaDeg)
	}
}

func TestFeatSDefaults(t *testing.T) {
	f := NewFeatS(FeatSOptions{})
	if f.Tau != 0.15 || f.CheckEvery != 700 {
		t.Errorf("defaults = {Tau:%g, CheckEvery:%d}", f.Tau, f.CheckEvery)
	}
}
