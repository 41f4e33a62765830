package factcrawl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"strings"
	"testing"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/index"
	"adaptiverank/internal/sampling"
)

// fixture: docs 0..9 contain "lava" (0..4 also "ash"), docs 10..14 contain
// "garlic" only.
func fixture() (*corpus.Collection, *index.Index) {
	var docs []*corpus.Document
	for i := 0; i < 10; i++ {
		text := "lava flows near the crater"
		if i < 5 {
			text += " ash plume"
		}
		docs = append(docs, &corpus.Document{Text: text})
	}
	for i := 0; i < 5; i++ {
		docs = append(docs, &corpus.Document{Text: "garlic recipe simmer"})
	}
	coll := corpus.NewCollection(docs)
	return coll, index.Build(coll)
}

func lists() []sampling.QueryList {
	return []sampling.QueryList{{Method: "m1", Queries: []string{"lava", "ash"}}}
}

func TestFCScoreSumsOverRetrievingQueries(t *testing.T) {
	coll, idx := fixture()
	fc := New(idx, lists(), Options{RetrieveK: 50}, false)
	useful := func(id corpus.DocID) bool { return id < 5 } // ash docs useful
	fc.Prime(coll.Docs(), useful)

	both := fc.Score(coll.Doc(0))     // retrieved by [lava] and [ash]
	lavaOnly := fc.Score(coll.Doc(7)) // retrieved by [lava] only
	neither := fc.Score(coll.Doc(12))
	if !(both > lavaOnly && lavaOnly >= 0 && neither == 0) {
		t.Errorf("scores both=%g lavaOnly=%g neither=%g violate S(d) structure",
			both, lavaOnly, neither)
	}
}

func TestFCQueryFMeasures(t *testing.T) {
	coll, idx := fixture()
	fc := New(idx, lists(), Options{RetrieveK: 50}, false)
	useful := func(id corpus.DocID) bool { return id < 5 }
	fc.Prime(coll.Docs(), useful)
	qf := fc.QueryF()
	// [ash] retrieves exactly the useful docs: F = 1.
	if qf["ash"] < 0.99 {
		t.Errorf("F(ash) = %g, want 1", qf["ash"])
	}
	// [lava] has precision 0.5, recall 1: F = 2/3.
	if qf["lava"] < 0.6 || qf["lava"] > 0.72 {
		t.Errorf("F(lava) = %g, want ~0.667", qf["lava"])
	}
}

func TestBaseFCObserveIsNoop(t *testing.T) {
	coll, idx := fixture()
	fc := New(idx, lists(), Options{}, false)
	fc.Prime(coll.Docs()[:5], func(id corpus.DocID) bool { return true })
	if fc.Observe(coll.Doc(7), true) {
		t.Error("base FC Observe must return false")
	}
}

func TestAFCUpdatesQualityAndReRanks(t *testing.T) {
	coll, idx := fixture()
	fc := New(idx, lists(), Options{RetrieveK: 50, NewQueryEvery: 1000}, true)
	// Prime with a misleading sample: only lava-only docs, all useless.
	fc.Prime(coll.Docs()[5:10], func(corpus.DocID) bool { return false })
	before := fc.Score(coll.Doc(0))
	// Observing a useful ash document must raise ash's quality.
	if !fc.Observe(coll.Doc(1), true) {
		t.Fatal("A-FC Observe must request a re-rank")
	}
	if after := fc.Score(coll.Doc(0)); after <= before {
		t.Errorf("score did not improve after positive evidence: %g -> %g", before, after)
	}
}

func TestAFCLearnsNewQueries(t *testing.T) {
	coll, idx := fixture()
	fc := New(idx, []sampling.QueryList{{Method: "m1", Queries: []string{"lava"}}},
		Options{RetrieveK: 50, NewQueryEvery: 2, MaxNewQueries: 3}, true)
	fc.Prime(coll.Docs()[5:8], func(corpus.DocID) bool { return false })
	start := fc.QueryCount()
	for i := 0; i < 10; i++ {
		fc.Observe(coll.Doc(corpus.DocID(i)), i < 5)
	}
	if fc.QueryCount() <= start {
		t.Errorf("A-FC query count stayed at %d; expected new learned queries", start)
	}
}

func TestAFCQueryCap(t *testing.T) {
	coll, idx := fixture()
	fc := New(idx, []sampling.QueryList{{Method: "m1", Queries: []string{"lava"}}},
		Options{RetrieveK: 50, NewQueryEvery: 1, MaxNewQueries: 5, MaxTotalQueries: 3}, true)
	fc.Prime(nil, func(corpus.DocID) bool { return false })
	for i := 0; i < 15; i++ {
		fc.Observe(coll.Doc(corpus.DocID(i)), i%3 == 0)
	}
	if fc.QueryCount() > 3+5 {
		t.Errorf("query count %d exceeded the cap by more than one round", fc.QueryCount())
	}
}

func TestDuplicateQueriesIgnored(t *testing.T) {
	_, idx := fixture()
	fc := New(idx, []sampling.QueryList{
		{Method: "m1", Queries: []string{"lava", "LAVA", " lava "}},
	}, Options{}, false)
	if fc.QueryCount() != 1 {
		t.Errorf("QueryCount = %d, want 1 after normalization", fc.QueryCount())
	}
}

func TestNames(t *testing.T) {
	_, idx := fixture()
	if New(idx, nil, Options{}, false).Name() != "FC" {
		t.Error("FC name")
	}
	if New(idx, nil, Options{}, true).Name() != "A-FC" {
		t.Error("A-FC name")
	}
}

// TestFCPrimeScoreDigest pins the query F-measure FactCrawl scores with
// (β = 1, as New builds it by default): over a fixed synthetic
// collection, every document's score after Prime hashes to a constant.
// The sample makes precision and recall differ for most queries, so any
// other β moves the scores.
func TestFCPrimeScoreDigest(t *testing.T) {
	vocab := strings.Fields("lava ash crater plume magma basalt garlic recipe simmer basil oven broth")
	r := rand.New(rand.NewSource(3))
	docs := make([]*corpus.Document, 400)
	for i := range docs {
		words := make([]string, 6)
		for j := range words {
			words[j] = vocab[r.Intn(len(vocab))]
		}
		docs[i] = &corpus.Document{Text: strings.Join(words, " ")}
	}
	coll := corpus.NewCollection(docs)
	fc := New(index.Build(coll), []sampling.QueryList{
		{Method: "m1", Queries: []string{"lava", "ash", "crater", "garlic"}},
		{Method: "m2", Queries: []string{"magma", "plume", "recipe"}},
	}, Options{}, false)
	useful := func(id corpus.DocID) bool {
		text := coll.Doc(id).Text
		return strings.Contains(text, "lava") && strings.Contains(text, "magma") || id%11 == 0
	}
	fc.Prime(coll.Docs()[:200], useful)
	h := sha256.New()
	for _, d := range coll.Docs() {
		binary.Write(h, binary.LittleEndian, math.Float64bits(fc.Score(d)))
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("digest %s", got)
	if want := "875dd392aa0dc773272f50c4ca705ce64980bfbb280b029ceee56d1628ffcd69"; got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}
