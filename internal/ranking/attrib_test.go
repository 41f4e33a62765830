package ranking

import (
	"math/rand"
	"testing"

	"adaptiverank/internal/vector"
)

// The attribution contract pinned here: Attribute(x).Score is bitwise
// equal to Score(x) and ScoreBatch, Reconstruct() rebuilds that same float64
// from the parts, every reported contribution is nonzero, and the
// contributions arrive in ascending feature-index order (the fold order
// that makes the sum exact).

func checkAttribution(t *testing.T, rk Ranker, seed int64) {
	t.Helper()
	at, ok := rk.(Attributor)
	if !ok {
		t.Fatalf("%s does not implement Attributor", rk.Name())
	}
	ps := rk.(PackedScorer)
	r := rand.New(rand.NewSource(seed))
	var batch [1]float64
	for i := 0; i < 500; i++ {
		sx := example(r, i%3 == 0)
		x := sx.Packed()
		want := rk.Score(sx)
		if ps.ScoreBatch([]vector.Packed{x}, batch[:]); batch[0] != want {
			t.Fatalf("doc %d: ScoreBatch = %v, Score = %v (bits differ)", i, batch[0], want)
		}
		a := at.Attribute(x)
		if a.Score != want {
			t.Fatalf("doc %d: Attribute.Score = %v, Score = %v (bits differ)", i, a.Score, want)
		}
		if got := a.Reconstruct(); got != want {
			t.Fatalf("doc %d: Reconstruct = %v, Score = %v (bits differ)", i, got, want)
		}
		for mi, m := range a.Members {
			var margin float64
			for j, c := range m.Contribs {
				if c.Value == 0 {
					t.Fatalf("doc %d member %d: zero contribution reported for feature %d", i, mi, c.Index)
				}
				if j > 0 && m.Contribs[j-1].Index >= c.Index {
					t.Fatalf("doc %d member %d: contributions not in ascending index order", i, mi)
				}
				margin += c.Value
			}
			if margin += m.Bias; margin != m.Margin {
				t.Fatalf("doc %d member %d: contribution fold %v != Margin %v", i, mi, margin, m.Margin)
			}
		}
	}
}

func TestRSVMIEAttributionReconstructsScore(t *testing.T) {
	rk := NewRSVMIE(RSVMOptions{Seed: 3})
	trainRanker(t, rk, 2000, 7)
	checkAttribution(t, rk, 11)
}

func TestBAggIEAttributionReconstructsScore(t *testing.T) {
	rk := NewBAggIE(BAggOptions{})
	trainRanker(t, rk, 2000, 7)
	checkAttribution(t, rk, 11)
	a := rk.Attribute(example(rand.New(rand.NewSource(13)), true).Packed())
	if len(a.Members) != rk.Members() {
		t.Fatalf("BAgg attribution has %d members, committee has %d", len(a.Members), rk.Members())
	}
	if !a.Logistic {
		t.Fatal("BAgg attribution must be marked logistic")
	}
}

// Untrained models attribute too: no contributions, but the score still
// reconstructs (0 for RSVM, the members' logistic biases for BAgg).
func TestAttributionUntrained(t *testing.T) {
	for _, rk := range []Ranker{NewRSVMIE(RSVMOptions{}), NewBAggIE(BAggOptions{})} {
		checkAttribution(t, rk, 17)
	}
}
