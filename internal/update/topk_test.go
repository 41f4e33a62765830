package update

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"adaptiverank/internal/obs"
	"adaptiverank/internal/vector"
)

// Top-K streams for the order tests draw ids from a vocabulary of
// topKVocab features; every id below topKTwins comes with its twin (the
// id with the low bit flipped) at the same count, so the twins' weights
// stay equal and tie on |weight| in the top-K list.
const (
	topKVocab = 48
	topKTwins = 16
)

var topKLambdas = []float64{0.05, 0.5, 2, 8}

// byteSource hands out a fuzz input's bytes, then zeros.
type byteSource struct{ data []byte }

func (s *byteSource) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

// driveTopK runs a Top-K detector through the operations data encodes:
// its K and LambdaAll, then observations of labelled documents, steps
// taken directly through SideModel (some on ids no observed document
// carries), and resets, one of which may leave the touched-feature
// generation about to wrap. After every observation and reset it checks
// the detector's lists against full selections (checkTopK) and returns
// how many adjacent pairs of the checked top-K lists tied on |weight|.
func driveTopK(t *testing.T, data []byte) (ties int) {
	t.Helper()
	src := &byteSource{data: data}
	tk := NewTopK(TopKOptions{K: 1 + int(src.next()%48), LambdaAll: topKLambdas[int(src.next())%len(topKLambdas)]})
	doc := func(lo int32) vector.Sparse {
		var idx []int32
		var val []float64
		for n := 1 + src.next()%6; n > 0; n-- {
			i, c := lo+int32(src.next())%topKVocab, float64(1+src.next()%3)
			if i < topKTwins {
				i &^= 1
				idx, val = append(idx, i+1), append(val, c)
			}
			idx, val = append(idx, i), append(val, c)
		}
		return vector.NewSparse(idx, val).Normalize()
	}
	var ref []vector.WeightedFeature
	for step := 0; len(src.data) > 0 && step < 400; step++ {
		switch op := src.next(); op % 8 {
		case 6: // checked at the next observation, which recomputes
			lo := int32(0)
			if op&0x80 != 0 {
				lo = topKVocab
			}
			tk.SideModel().Step(doc(lo), float64(1-2*int(op>>6&1)))
			continue
		case 7:
			tk.Reset()
			ref = tk.SideModel().Weights().TopK(tk.K)
			if op&0x80 != 0 {
				tk.gen = math.MaxUint32
			}
		default:
			tk.Observe(doc(0), op&0x10 != 0)
		}
		ties += checkTopK(t, step, tk, ref)
	}
	return ties
}

// checkTopK fails the test unless tk's support order, cur and ref equal
// full selections over its side classifier, bit for bit: order the whole
// support, cur its top K, and ref the top K at the last reset (want). It
// returns how many adjacent pairs of cur tie on |weight|.
func checkTopK(t *testing.T, step int, tk *TopK, ref []vector.WeightedFeature) (ties int) {
	t.Helper()
	w := tk.SideModel().Weights()
	same := func(a, b vector.WeightedFeature) bool {
		return a.Index == b.Index && math.Float64bits(a.Weight) == math.Float64bits(b.Weight)
	}
	for _, c := range []struct {
		name      string
		got, want []vector.WeightedFeature
	}{
		{"order", tk.order, w.TopK(w.NNZ())},
		{"cur", tk.cur, w.TopK(tk.K)},
		{"ref", tk.ref, ref},
	} {
		if !slices.EqualFunc(c.got, c.want, same) {
			t.Fatalf("step %d (K=%d): %s = %v, full selection %v", step, tk.K, c.name, c.got, c.want)
		}
	}
	for i := 1; i < len(tk.cur); i++ {
		if math.Abs(tk.cur[i].Weight) == math.Abs(tk.cur[i-1].Weight) {
			ties++
		}
	}
	return ties
}

// TestTopKOrderMatchesFullSelection drives random streams, with twin
// features, every LambdaAll of topKLambdas (the larger ones clip weights
// to zero), direct SideModel steps and random K, and requires the
// patched support order to equal a full selection after every
// observation and reset.
func TestTopKOrderMatchesFullSelection(t *testing.T) {
	var ties int
	for seed := int64(0); seed < 40; seed++ {
		data := make([]byte, 3000)
		rand.New(rand.NewSource(seed)).Read(data)
		data[1] = byte(seed) // cycles LambdaAll
		ties += driveTopK(t, data)
	}
	if ties == 0 {
		t.Fatal("no top-K list held a tie on |weight|; the twins must produce some")
	}
	t.Logf("%d tied adjacent pairs checked", ties)
}

// FuzzTopKMatchesFullSelection is TestTopKOrderMatchesFullSelection over
// fuzzed operation sequences.
func FuzzTopKMatchesFullSelection(f *testing.F) {
	// K=5, LambdaAll 0.5: balanced observations, a direct step on new
	// ids, a reset that leaves the generation about to wrap, more
	// observations.
	f.Add([]byte{4, 1, 0, 2, 3, 1, 16, 1, 9, 0, 0, 3, 2, 16, 2, 5, 1, 6, 134,
		1, 3, 0, 135, 0, 2, 7, 2, 16, 1, 30, 2, 0, 1, 4, 0})
	// K=40 with the heaviest clipping, twins only.
	f.Add([]byte{39, 3, 16, 2, 1, 0, 3, 1, 0, 1, 16, 0, 3, 0, 7, 1, 16, 2, 2, 1, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) { driveTopK(t, data) })
}

// TestTopKDecisionEvidenceMatchesLists records every decision through
// resets and requires each event's entered, left and displaced values
// to equal referenceTopKEvidence over the ref and cur of that moment.
// Resets land inside one-sided runs, so the observation after one does
// not step the side classifier: only Reset can have made the cached
// evidence stale.
func TestTopKDecisionEvidenceMatchesLists(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	tk, doc := primedTopK(r, 10)
	rec := &obs.MemRecorder{}
	tk.Instrument(nil, rec, nil)
	attr := func(e obs.Event, key string) obs.Attr {
		for _, a := range e.Attrs {
			if a.Key == key {
				return a
			}
		}
		t.Fatalf("decision %d has no %q attribute", e.Seq, key)
		return obs.Attr{}
	}
	var staleResets int
	for i := 0; i < 800; i++ {
		useful := (i/20)%2 == 0 && i%2 == 0
		fired := tk.Observe(doc(useful, 5*(i/200)), useful)
		evs := rec.Events()
		e := evs[len(evs)-1]
		entered, left, displaced := referenceTopKEvidence(tk.ref, tk.cur)
		if got := attr(e, obs.EvidenceEntered).Num; got != float64(entered) {
			t.Fatalf("observation %d: entered = %v, lists give %d", i, got, entered)
		}
		if got := attr(e, obs.EvidenceLeft).Num; got != float64(left) {
			t.Fatalf("observation %d: left = %v, lists give %d", i, got, left)
		}
		if got := attr(e, obs.EvidenceDisplaced).Str; got != displaced {
			t.Fatalf("observation %d: displaced = %q, lists give %q", i, got, displaced)
		}
		if fired || i%40 == 30 {
			if entered+left > 0 {
				staleResets++
			}
			tk.Reset()
		}
	}
	if staleResets == 0 {
		t.Fatal("no reset replaced evidence with entries; the stream must move the top-K list")
	}
}

// referenceTopKEvidence is the decision evidence as Top-K computed it
// before footrule.evidence: it compares the reference and current top-K
// feature lists through a position map and a full sort of the moves:
// how many features entered and left the list since the last baseline,
// and the most displaced features as a "index:refRank->curRank" list
// (0-based ranks, -1 for absent). Displacement is ranked by rank delta
// — absences count as a full-list move — with feature index as the
// deterministic tiebreaker.
func referenceTopKEvidence(ref, cur []vector.WeightedFeature) (entered, left int, displaced string) {
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

// TestFootruleEvidenceMatchesReference holds footrule.evidence to
// referenceTopKEvidence, string for string, over random list pairs
// drawn from a small id range with few distinct weights: lists of
// different lengths, a list and its own ranks swapped (ties in rank
// delta), disjoint lists (ids from two separate ranges) and empty
// lists. One evaluator is reused, so the current list's id table is
// patched from the pair before.
func TestFootruleEvidenceMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	list := func(lo, span int32) []vector.WeightedFeature {
		n := r.Intn(12)
		if r.Intn(4) == 0 {
			n += r.Intn(40)
		}
		w := vector.NewWeights()
		for k := 0; k < n; k++ {
			w.Set(lo+r.Int31n(span), float64(1+r.Intn(4)))
		}
		return w.TopK(int(span))
	}
	// perturb swaps a few of l's ranks, so that most features stay in
	// both lists and each swap makes two moves tied on delta.
	perturb := func(l []vector.WeightedFeature) []vector.WeightedFeature {
		out := slices.Clone(l)
		for n := r.Intn(5); n > 0 && len(out) > 1; n-- {
			i, j := r.Intn(len(out)), r.Intn(len(out))
			out[i], out[j] = out[j], out[i]
		}
		return out
	}
	var fr footrule
	var ties, disjoint, empty int
	for pair := 0; pair < 20000; pair++ {
		ref, cur := list(0, 30), list(0, 30)
		switch pair % 7 {
		case 0:
			cur = list(30, 30)
			disjoint++
		case 1, 2, 3:
			cur = perturb(ref)
		}
		if len(ref) == 0 || len(cur) == 0 {
			empty++
		}
		fr.setRef(ref)
		fr.to(cur)
		entered, left, displaced := fr.evidence()
		wantEntered, wantLeft, wantDisplaced := referenceTopKEvidence(ref, cur)
		if entered != wantEntered || left != wantLeft || displaced != wantDisplaced {
			t.Fatalf("pair %d: ref %v, cur %v: evidence (%d, %d, %q), reference (%d, %d, %q)",
				pair, ref, cur, entered, left, displaced, wantEntered, wantLeft, wantDisplaced)
		}
		if entered+left > topMoves { // the cut falls inside a tie on the full delta
			ties++
		}
	}
	if ties == 0 || disjoint == 0 || empty == 0 {
		t.Fatalf("%d cuts inside a tie, %d disjoint pairs, %d with an empty list; the draw must make each", ties, disjoint, empty)
	}
	t.Logf("%d cuts inside a tie, %d disjoint pairs, %d with an empty list", ties, disjoint, empty)
}

// TestFootruleReusedAcrossPerturbedLists holds one evaluator, reused
// along a sequence of top-K lists that each differ from the last by a
// few features entering, leaving or changing rank (small integer
// weights, so ties are common), to referenceFootrule bit for bit at
// every step, re-baselining the reference now and then.
func TestFootruleReusedAcrossPerturbedLists(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	w := vector.NewWeights()
	for i := int32(0); i < 60; i++ {
		w.Set(i, float64(1+r.Intn(20)))
	}
	var fr footrule
	ref := w.TopK(25)
	fr.setRef(ref)
	for step := 0; step < 3000; step++ {
		for n := r.Intn(4); n >= 0; n-- {
			i := int32(r.Intn(80))
			if r.Intn(3) == 0 {
				w.Set(i, 0)
			} else {
				w.Set(i, float64(1+r.Intn(20)))
			}
		}
		cur := w.TopK(25)
		if step%300 == 299 {
			ref = cur
			fr.setRef(ref)
		}
		if got, want := fr.to(cur), referenceFootrule(ref, cur); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: footrule = %v, reference %v", step, got, want)
		}
	}
}
