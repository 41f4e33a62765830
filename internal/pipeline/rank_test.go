package pipeline

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/extract"
	"adaptiverank/internal/obs/explain"
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

// rankRun is a bare run whose strategy scores documents from a table,
// so a test can drive the rank pass by hand.
func rankRun(scores map[corpus.DocID]float64) *run {
	return newRun(context.Background(), Options{
		Coll: corpus.NewCollection(nil), Labels: &Labels{},
		Strategy: &scriptedStrategy{scores: scores}, Workers: 1,
	})
}

// take hands out the next pending document as step does, popping it when
// none waits.
func take(r *run) *corpus.Document {
	if r.cursor == r.ranked {
		r.pop()
	}
	d := r.pending[r.cursor]
	r.cursor++
	return d
}

// checkPasses drives docs through two rank passes the way the loop does:
// rank, hand out k documents, pop extra more ahead of the cursor (as
// attribute does), append tail (requeued and retrieved documents), rank
// what is left and hand all of it out. sortRef sorts a pool as the
// oracle does, and each pass's order must equal the oracle's; name
// prefixes a failure.
func checkPasses(t *testing.T, name string, r *run, docs []*corpus.Document, k, extra int, tail []*corpus.Document, sortRef func([]*corpus.Document)) {
	t.Helper()
	want := slices.Clone(docs)
	sortRef(want)
	r.pending, r.cursor = append(r.pending[:0], docs...), 0
	r.rank()
	var got []*corpus.Document
	for len(got) < k && r.cursor < len(r.pending) {
		got = append(got, take(r))
	}
	for r.ranked < r.cursor+extra && len(r.heap) > 0 {
		r.pop()
	}
	if !slices.Equal(got, want[:len(got)]) {
		t.Fatalf("%s: first pass = %v, want %v", name, ids(got), ids(want[:len(got)]))
	}
	want = append(want[len(got):], tail...)
	sortRef(want)
	r.pending = append(r.pending, tail...)
	r.rank()
	got = got[:0]
	for r.cursor < len(r.pending) {
		got = append(got, take(r))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: second pass = %v, want %v", name, ids(got), ids(want))
	}
}

// TestRankOrderMatchesReference checks the rank pass's lazy order
// against the former map + stable-sort ordering over 1,000 random
// NaN-free pools with tied scores, both zeros, both infinities, and
// documents entered twice. Each pool is handed out whole in one pass,
// then again split over two passes with documents popped ahead and a
// tail of requeued, retrieved and duplicate documents between them. One
// run serves every pool, so its buffers are reused as the pipeline
// reuses them.
func TestRankOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	split := rand.New(rand.NewSource(26)) // leaves rng's pools as they were
	special := []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1, -1, 0.5}
	scoreOf := make(map[corpus.DocID]float64)
	r := rankRun(scoreOf)
	sortRef := func(docs []*corpus.Document) {
		out := make([]float64, len(docs))
		for i, d := range docs {
			out[i] = scoreOf[d.ID]
		}
		referenceRankOrder(docs, out)
	}
	for trial := 0; trial < 1000; trial++ {
		n := rng.Intn(80)
		width := 1 + rng.Intn(2*n+1) // narrow id spaces repeat documents
		byID := make(map[corpus.DocID]*corpus.Document)
		clear(scoreOf)
		docs := make([]*corpus.Document, n)
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
			docs[i] = byID[id]
		}
		var tail []*corpus.Document
		for j := split.Intn(8); j > 0; j-- {
			if n > 0 && split.Intn(2) == 0 {
				tail = append(tail, docs[split.Intn(n)])
				continue
			}
			id := corpus.DocID(width + len(tail))
			tail = append(tail, &corpus.Document{ID: id})
			scoreOf[id] = float64(split.Intn(9)-4) / 4
		}
		name := fmt.Sprint("trial ", trial)
		checkPasses(t, name, r, docs, n, 0, nil, sortRef)
		checkPasses(t, name, r, docs, split.Intn(n+1), split.Intn(10), tail, sortRef)
	}
}

// sortRankOrder is the rank pass's sort before it became a heap, kept as
// a test oracle: score descending with NaN last, then id ascending.
func sortRankOrder(docs []*corpus.Document, scoreOf map[corpus.DocID]float64) {
	slices.SortFunc(docs, func(a, b *corpus.Document) int {
		// cmp.Compare orders NaN first, so NaN comes last descending.
		if c := cmp.Compare(scoreOf[b.ID], scoreOf[a.ID]); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// FuzzRankOrderMatchesSort checks the lazy order against the sort it
// replaced, over NaN, ±Inf, ±0 and repeated documents. Each byte pair
// enters one document: the first byte picks its id from a narrow space,
// so documents repeat, and the second its score, kept by a repeat. k,
// extra and cut split the pool over two passes as checkPasses does; the
// documents from cut on arrive as the second pass's tail.
func FuzzRankOrderMatchesSort(f *testing.F) {
	f.Add([]byte{1, 0, 2, 1, 3, 2, 1, 0, 4, 3, 5, 4, 6, 5, 7, 6, 8, 7, 9, 8}, uint8(3), uint8(2), uint8(6))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0}, uint8(0), uint8(9), uint8(2))
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1, -1, 0.5, math.Float64frombits(0xfff8000000000001), -0.5, 2}
	f.Fuzz(func(t *testing.T, data []byte, k, extra, cut uint8) {
		scoreOf := make(map[corpus.DocID]float64)
		byID := make(map[corpus.DocID]*corpus.Document)
		var docs []*corpus.Document
		for i := 0; i+1 < len(data) && len(docs) < 256; i += 2 {
			id := corpus.DocID(data[i] % 32)
			if byID[id] == nil {
				byID[id] = &corpus.Document{ID: id}
				scoreOf[id] = values[int(data[i+1])%len(values)]
			}
			docs = append(docs, byID[id])
		}
		c := min(int(cut), len(docs))
		sortRef := func(docs []*corpus.Document) { sortRankOrder(docs, scoreOf) }
		r := rankRun(scoreOf)
		checkPasses(t, "whole", r, docs, len(docs), 0, nil, sortRef)
		checkPasses(t, "split", r, docs[:c], int(k), int(extra), docs[c:], sortRef)
	})
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

// TestRunOrderDigest pins the order paths the trajectory digests, which
// run with full access and a healthy oracle to the end, do not reach: a
// breaker-open requeue tail, search-interface growth with duplicate
// retrievals, and a MaxDocs stop in the middle of a pass. Each case
// hashes Order, Skipped, Requeued, PoolSize and ScoredDocs. The growth
// run is explained, and its attributed documents are hashed too, with
// the feature ids of their contributions: those ids follow the order in
// which the grown passes featurize the retrieved documents.
func TestRunOrderDigest(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		opts    func(*testEnv) Options
		explain bool
		digest  string
	}{
		{"requeue", 13, breakerOpts, false, "b29cc49f9b4299ee7904b84f9cb010e457a3425bb4065ec0be7cedf608503d06"},
		{"search-iface", 8, searchIfaceOpts, true, "701c3e03ade910b90d6d0ca60965fd3ef3bd22682410e48c44684e31139b7985"},
		{"max-docs", 7, maxDocsOpts, false, "09a45393d690129c4594c98c6e38476f99814f15bc90cd6d50a96361eae03f2a"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts(newTestEnv(t, tc.seed))
			dir := t.TempDir()
			if tc.explain {
				ex, err := explain.New(explain.Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				opts.Explain = ex
			}
			res, err := Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			putIDs(h, res.Order)
			putIDs(h, res.Skipped)
			putUint64(h, uint64(res.Requeued))
			putUint64(h, uint64(res.PoolSize))
			putUint64(h, uint64(res.ScoredDocs))
			attributed := 0
			if tc.explain {
				if err := opts.Explain.Close(); err != nil {
					t.Fatal(err)
				}
				l, err := explain.ReadLog(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range l.Attributions {
					putUint64(h, uint64(a.Pos))
					putUint64(h, uint64(a.Rank))
					putUint64(h, uint64(a.Doc))
					for _, m := range a.Members {
						for _, c := range m.Contribs {
							putUint64(h, uint64(c.Index))
						}
					}
				}
				attributed = len(l.Attributions)
			}
			got := hex.EncodeToString(h.Sum(nil))
			t.Logf("%d ranked, %d skipped, %d requeued, pool %d, %d scored, %d attributed: digest %s",
				len(res.Order), len(res.Skipped), res.Requeued, res.PoolSize, res.ScoredDocs, attributed, got)
			if got != tc.digest {
				t.Errorf("digest = %s, want %s", got, tc.digest)
			}
		})
	}
}

// putIDs hashes a length-prefixed list of document ids.
func putIDs(h hash.Hash, ids []corpus.DocID) {
	putUint64(h, uint64(len(ids)))
	for _, id := range ids {
		putUint64(h, uint64(id))
	}
}
