package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/extract"
	"adaptiverank/internal/relation"
)

// referenceRankOrder is the rank pass's former ordering, kept as a test
// oracle: every score goes into a map keyed by document id, and a stable
// sort orders the documents by score descending, then id ascending,
// looking both scores up in the map at every comparison.
func referenceRankOrder(docs []*corpus.Document, out []float64) {
	scores := make(map[corpus.DocID]float64, len(docs))
	for i, d := range docs {
		scores[d.ID] = out[i]
	}
	sort.SliceStable(docs, func(i, j int) bool {
		si, sj := scores[docs[i].ID], scores[docs[j].ID]
		if si != sj {
			return si > sj
		}
		return docs[i].ID < docs[j].ID
	})
}

// TestRankOrderMatchesReference checks rankOrder against the former
// map + stable-sort ordering over 1,000 random NaN-free pools with tied
// scores, both zeros, both infinities, and documents entered twice, with
// the pair scratch reused across pools as the pipeline reuses it.
func TestRankOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	special := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 0.5}
	var pairs []rankEntry
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(80)
		width := 1 + rng.Intn(2*n+1) // narrow id spaces repeat documents
		byID := make(map[corpus.DocID]*corpus.Document)
		scoreOf := make(map[corpus.DocID]float64)
		docs := make([]*corpus.Document, n)
		out := make([]float64, n)
		for i := range docs {
			id := corpus.DocID(rng.Intn(width))
			if byID[id] == nil {
				byID[id] = &corpus.Document{ID: id}
				if rng.Intn(3) == 0 {
					scoreOf[id] = special[rng.Intn(len(special))]
				} else {
					scoreOf[id] = float64(rng.Intn(9)-4) / 4 // dyadic, so ties are common
				}
			}
			// A document entered twice is the same *Document with the
			// same score, as in the pipeline.
			docs[i], out[i] = byID[id], scoreOf[id]
		}
		want := slices.Clone(docs)
		referenceRankOrder(want, slices.Clone(out))
		pairs = rankOrder(docs, out, pairs)
		if !slices.Equal(docs, want) {
			t.Fatalf("trial %d: rankOrder = %v, reference %v", trial, ids(docs), ids(want))
		}
	}
}

func ids(docs []*corpus.Document) []corpus.DocID {
	out := make([]corpus.DocID, len(docs))
	for i, d := range docs {
		out[i] = d.ID
	}
	return out
}

// scriptedStrategy scores each document from a table keyed by id and
// panics on the ids marked as bombs; it never learns or self-re-ranks.
type scriptedStrategy struct {
	scores map[corpus.DocID]float64
	bombs  map[corpus.DocID]bool
}

func (s *scriptedStrategy) Name() string            { return "scripted" }
func (s *scriptedStrategy) Init([]LabeledDoc)       {}
func (s *scriptedStrategy) Update([]LabeledDoc)     {}
func (s *scriptedStrategy) Observe(LabeledDoc) bool { return false }
func (s *scriptedStrategy) Score(d *corpus.Document) float64 {
	if s.bombs[d.ID] {
		panic("scripted bomb")
	}
	return s.scores[d.ID]
}

// TestRankNaNLast runs the pipeline with a strategy that scores chosen
// documents NaN, ±Inf and ±0 (and one panic, which ranks as −Inf). A NaN
// score must rank after every other score, −Inf included, with NaNs in
// id order; everything else ranks by score descending, then id.
func TestRankNaNLast(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	scores := map[corpus.DocID]float64{
		1: nan, 2: inf, 3: -inf, 4: 0, 5: math.Copysign(0, -1), 6: nan,
		8: 1, 9: -1, 10: 1, 11: nan, 12: 0.5, 13: nan,
	}
	want := []corpus.DocID{2, 8, 10, 12, 4, 5, 9, 3, 7, 1, 6, 11, 13}
	docs := make([]*corpus.Document, 14)
	for i := range docs {
		docs[i] = &corpus.Document{Text: fmt.Sprintf("document number %d", i)}
	}
	coll := corpus.NewCollection(docs)
	labels := ComputeLabels(extract.Get(relation.PH), coll)
	for _, workers := range []int{1, 2} {
		res, err := Run(Options{
			Rel: relation.PH, Coll: coll, Labels: labels, Sample: docs[:1],
			Strategy: &scriptedStrategy{scores: scores, bombs: map[corpus.DocID]bool{7: true}},
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Order, want) {
			t.Errorf("workers=%d: order = %v, want %v", workers, res.Order, want)
		}
	}
}
