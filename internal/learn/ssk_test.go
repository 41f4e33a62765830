package learn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveSSK counts common subsequences of length exactly p by brute-force
// enumeration, weighting each occurrence pair by lambda^(span_s + span_t)
// where span is the gap-inclusive length of the occurrence. This is the
// textbook definition the DP must match.
func naiveSSK(s, t []string, p int, lambda float64) float64 {
	var subseqWeights func(seq []string) map[string]float64
	subseqWeights = func(seq []string) map[string]float64 {
		// Map from subsequence key to the sum of lambda^span over its
		// occurrences.
		out := make(map[string]float64)
		n := len(seq)
		var rec func(start, depth int, first, last int, key string)
		rec = func(start, depth, first, last int, key string) {
			if depth == p {
				out[key] += math.Pow(lambda, float64(last-first+1))
				return
			}
			for i := start; i < n; i++ {
				f := first
				if depth == 0 {
					f = i
				}
				rec(i+1, depth+1, f, i, key+"\x00"+seq[i])
			}
		}
		rec(0, 0, 0, 0, "")
		return out
	}
	ws := subseqWeights(s)
	wt := subseqWeights(t)
	var sum float64
	for k, v := range ws {
		if u, ok := wt[k]; ok {
			sum += v * u
		}
	}
	return sum
}

// rawP exposes the single-length kernel by differencing two blended runs.
func rawP(k *SubseqKernel, s, t []string, p int) float64 {
	kp := &SubseqKernel{P: p, Lambda: k.Lambda}
	if p == 1 {
		return kp.raw(s, t)
	}
	kprev := &SubseqKernel{P: p - 1, Lambda: k.Lambda}
	return kp.raw(s, t) - kprev.raw(s, t)
}

func TestSSKMatchesNaiveEnumeration(t *testing.T) {
	k := NewSubseqKernel(2, 0.5)
	cases := [][2][]string{
		{{"a", "b"}, {"a", "b"}},
		{{"a", "b", "c"}, {"a", "c"}},
		{{"a", "x", "b"}, {"a", "b"}},
		{{"c", "a", "t"}, {"c", "a", "r", "t"}},
	}
	for _, c := range cases {
		for p := 1; p <= 2; p++ {
			got := rawP(k, c[0], c[1], p)
			want := naiveSSK(c[0], c[1], p, 0.5)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("K_%d(%v, %v) = %g, want %g", p, c[0], c[1], got, want)
			}
		}
	}
}

func TestSSKQuickMatchesNaive(t *testing.T) {
	k := NewSubseqKernel(3, 0.7)
	alphabet := []string{"a", "b", "c"}
	gen := func(r *rand.Rand) []string {
		n := 1 + r.Intn(5)
		out := make([]string, n)
		for i := range out {
			out[i] = alphabet[r.Intn(len(alphabet))]
		}
		return out
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, u := gen(r), gen(r)
		for p := 1; p <= 3; p++ {
			if math.Abs(rawP(k, s, u, p)-naiveSSK(s, u, p, 0.7)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSSKSimilarityProperties(t *testing.T) {
	k := NewSubseqKernel(3, 0.75)
	s := []string{"was", "charged", "with"}
	if got := k.Similarity(s, s); math.Abs(got-1) > 1e-9 {
		t.Errorf("self-similarity = %g, want 1", got)
	}
	if got := k.Similarity(s, []string{"zzz"}); got != 0 {
		t.Errorf("similarity with disjoint tokens = %g, want 0", got)
	}
	if got := k.Similarity(nil, s); got != 0 {
		t.Errorf("similarity with empty = %g, want 0", got)
	}
}

func TestSSKSimilarityOrderSensitive(t *testing.T) {
	k := NewSubseqKernel(3, 0.75)
	a := []string{"x", "won", "the", "y"}
	same := []string{"x", "won", "the", "z"}
	reversed := []string{"y", "the", "won", "x"}
	if k.Similarity(a, same) <= k.Similarity(a, reversed) {
		t.Error("kernel must reward shared subsequences in the same order")
	}
}

func TestSSKSymmetry(t *testing.T) {
	k := NewSubseqKernel(3, 0.6)
	a := []string{"a", "b", "c", "a"}
	b := []string{"b", "a", "c"}
	if math.Abs(k.Similarity(a, b)-k.Similarity(b, a)) > 1e-12 {
		t.Error("Similarity must be symmetric")
	}
}

func TestExemplarScorer(t *testing.T) {
	sc := NewExemplarScorer(NewSubseqKernel(3, 0.75), 0.5,
		[][]string{{"<arg1>", "was", "charged", "with", "<arg2>"}})
	if !sc.Match([]string{"<arg1>", "was", "charged", "with", "<arg2>", "yesterday"}) {
		t.Error("near-identical context must match")
	}
	if sc.Match([]string{"<arg1>", "denied", "any", "role", "in", "<arg2>"}) {
		t.Error("unrelated context must not match")
	}
	if sc.Score(nil) != 0 {
		t.Error("empty context must score 0")
	}
}

func TestNewSubseqKernelDefaults(t *testing.T) {
	k := NewSubseqKernel(0, -1)
	if k.P != 1 || k.Lambda != 0.75 {
		t.Errorf("defaults = {P:%d, Lambda:%g}, want {1, 0.75}", k.P, k.Lambda)
	}
}
