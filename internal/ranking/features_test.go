package ranking

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/textgen"
	"adaptiverank/internal/tokenize"
	"adaptiverank/internal/vector"
)

// refFeaturizer is the featurizer before the one-pass rewrite: every
// content token interned as "w="+token through its own tokenize.Vocab,
// a count map per document, then FromCounts and Normalize. It leaves out
// the row cache, which never changes a value. Its tokens come from
// tokenize.Words, which FuzzWordsMatchesReference pins to the rune-loop
// definition.
type refFeaturizer struct{ vocab *tokenize.Vocab }

func (f refFeaturizer) Features(d *corpus.Document) vector.Sparse {
	counts := make(map[int32]float64)
	for _, tok := range tokenize.Words(d.Text) {
		if len(tok) > 1 && !tokenize.IsStopword(tok) {
			counts[f.vocab.ID("w="+tok)] = 1
		}
	}
	return vector.FromCounts(counts).Normalize()
}

func (f refFeaturizer) TrainingFeatures(d *corpus.Document, tuples []relation.Tuple) vector.Sparse {
	if len(tuples) == 0 {
		return f.Features(d)
	}
	counts := make(map[int32]float64)
	for _, tok := range tokenize.Words(d.Text) {
		if len(tok) > 1 && !tokenize.IsStopword(tok) {
			counts[f.vocab.ID("w="+tok)] = 1
		}
	}
	for _, t := range tuples {
		for _, attr := range []string{t.Arg1, t.Arg2} {
			for _, tok := range tokenize.Words(attr) {
				if len(tok) > 1 && !tokenize.IsStopword(tok) {
					counts[f.vocab.ID("w="+tok)] += tupleBoost
				}
			}
		}
	}
	return vector.FromCounts(counts).Normalize()
}

// sameBits reports whether two rows hold the same ids and bitwise-equal
// values.
func sameBits(a, b vector.Sparse) bool {
	pa, pb := a.Packed(), b.Packed()
	return slices.Equal(pa.Idx, pb.Idx) &&
		slices.EqualFunc(pa.Val, pb.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// testCorpus is a generated corpus followed by a few non-ASCII documents,
// which take the splitter's rune path.
func testCorpus(seed int64, n int) []*corpus.Document {
	coll, _ := textgen.Generate(textgen.DefaultConfig(seed, n))
	docs := coll.Docs()
	for _, text := range []string{
		"Simões visited São Paulo's man-made harbour with O'Brien",
		"İstanbul and the Kelvin scale; ÉCOLE Polytechnique",
		"caf\xe9 bytes \xff are separators: x' --a BB-",
	} {
		docs = append(docs, &corpus.Document{ID: corpus.DocID(len(docs)), Text: text})
	}
	return docs
}

// TestFeaturizerMatchesReference featurizes a corpus in one order
// through Featurizer and refFeaturizer: every row, training rows
// included, must be bitwise equal, and the id → name tables identical.
// Training tuples name attributes found in the text, attributes absent
// from it, stopwords and one-letter tokens.
func TestFeaturizerMatchesReference(t *testing.T) {
	docs := testCorpus(7, 2000)
	f, ref := NewFeaturizer(), refFeaturizer{vocab: tokenize.NewVocab()}
	for i, d := range docs {
		var got, want vector.Sparse
		if i%7 == 3 {
			words := tokenize.Words(d.Text)
			tuples := []relation.Tuple{
				{Rel: relation.PH, Arg1: words[len(words)/2], Arg2: "The X of Zanzibar-Quixote"},
				{Rel: relation.PH, Arg1: "Quill Holdings", Arg2: words[0] + " " + words[len(words)-1]},
			}
			got, want = f.TrainingFeatures(d, tuples), ref.TrainingFeatures(d, tuples)
		} else {
			got, want = f.Features(d), ref.Features(d)
		}
		if !sameBits(got, want) {
			t.Fatalf("doc %d (%q): row %v, want %v", d.ID, d.Text, got, want)
		}
	}
	if len(f.names) != ref.vocab.Len() {
		t.Fatalf("featurizer interned %d features, reference %d", len(f.names), ref.vocab.Len())
	}
	for id := range f.names {
		if got, want := f.FeatureName(int32(id)), ref.vocab.Name(int32(id)); got != want {
			t.Fatalf("feature %d is %q, want %q", id, got, want)
		}
	}
}

// featCall is one featurizer call: a plain row of d, or its training row
// over tuples.
type featCall struct {
	d      *corpus.Document
	train  bool
	tuples []relation.Tuple
}

// checkFeatCalls makes calls in order through a new Featurizer and a new
// refFeaturizer: every row must be bitwise equal, and the id → name
// tables identical at the end.
func checkFeatCalls(t *testing.T, calls []featCall) {
	t.Helper()
	f, ref := NewFeaturizer(), refFeaturizer{vocab: tokenize.NewVocab()}
	for k, c := range calls {
		var got, want vector.Sparse
		if c.train {
			got, want = f.TrainingFeatures(c.d, c.tuples), ref.TrainingFeatures(c.d, c.tuples)
		} else {
			got, want = f.Features(c.d), ref.Features(c.d)
		}
		if !sameBits(got, want) {
			t.Fatalf("call %d (doc %d %q, training %v, tuples %v): row %v, want %v",
				k, c.d.ID, c.d.Text, c.train, c.tuples, got, want)
		}
	}
	if len(f.names) != ref.vocab.Len() {
		t.Fatalf("featurizer interned %d features, reference %d", len(f.names), ref.vocab.Len())
	}
	for id := range f.names {
		if got, want := f.FeatureName(int32(id)), ref.vocab.Name(int32(id)); got != want {
			t.Fatalf("feature %d is %q, want %q", id, got, want)
		}
	}
}

// trainingTuples draws the tuples of training call k on a document with
// the given words. Between them they name new tokens, a word of another
// document, tokens repeated within a tuple and across tuples, stopwords
// and one-letter tokens; some calls carry only stopwords and one-letter
// tokens, which leave the row as it is.
func trainingTuples(r *rand.Rand, k int, words, other []string) []relation.Tuple {
	pick := func(ws []string) string {
		if len(ws) == 0 {
			return "lava"
		}
		return ws[r.Intn(len(ws))]
	}
	if k%5 == 0 {
		return []relation.Tuple{{Rel: relation.PH, Arg1: "The", Arg2: "of a X"}}
	}
	shared := pick(words)
	novel := "novel" + strconv.Itoa(k)
	return []relation.Tuple{
		{Rel: relation.PH, Arg1: shared + " " + strings.ToUpper(shared), Arg2: "The X of " + novel + " " + novel},
		{Rel: relation.PH, Arg1: shared, Arg2: pick(other) + " and " + pick(words) + " " + novel},
	}
}

// TestTrainingFeaturesMatchReference holds training rows to
// refFeaturizer in three call orders: each document's row cached before
// its training row, training rows before any row of their document
// (whose plain row must then still match), and plain and training calls
// interleaved at random with repeats, so the row bitmaps are reused
// across both kinds of call. The corpus ends with an empty text and a
// text of one-letter tokens only.
func TestTrainingFeaturesMatchReference(t *testing.T) {
	docs := testCorpus(13, 300)
	for _, text := range []string{"", "a I x 7 - '"} {
		docs = append(docs, &corpus.Document{ID: corpus.DocID(len(docs)), Text: text})
	}
	words := make([][]string, len(docs))
	for i, d := range docs {
		words[i] = tokenize.Words(d.Text)
	}
	r := rand.New(rand.NewSource(13))
	training := func(k, i int) featCall {
		other := words[(i+1)%len(docs)]
		return featCall{d: docs[i], train: true, tuples: trainingTuples(r, k, words[i], other)}
	}

	t.Run("warm", func(t *testing.T) {
		var calls []featCall
		for i, d := range docs {
			calls = append(calls, featCall{d: d}, training(i, i))
		}
		checkFeatCalls(t, calls)
	})
	t.Run("training-first", func(t *testing.T) {
		var calls []featCall
		for i, d := range docs {
			calls = append(calls, training(i, i), featCall{d: d}, training(i+len(docs), i))
		}
		checkFeatCalls(t, calls)
	})
	t.Run("interleaved", func(t *testing.T) {
		var calls []featCall
		for k := 0; k < 4*len(docs); k++ {
			i := r.Intn(len(docs))
			if r.Intn(3) == 0 {
				calls = append(calls, training(k, i))
			} else {
				calls = append(calls, featCall{d: docs[i]})
			}
		}
		checkFeatCalls(t, calls)
	})
}

// FuzzTrainingFeaturesMatchesReference is TestTrainingFeaturesMatchReference
// over fuzzed texts and tuple attributes: a cold training row, the plain
// rows of two documents, and warm training rows, against refFeaturizer.
func FuzzTrainingFeaturesMatchesReference(f *testing.F) {
	f.Add("The eruption of Mount Pinatubo buried Clark Air Base in ash.", "Mount Pinatubo", "Clark Air Base", "the", "ash ash X")
	f.Add("", "Quill Holdings", "a", "quill", "QUILL quill")
	f.Add("Simões visited São Paulo's harbour", "são paulo", "Simões", "caf\xe9 \xff", "x' --a BB-")
	f.Fuzz(func(t *testing.T, text, a1, a2, b1, b2 string) {
		d0 := &corpus.Document{ID: 0, Text: text}
		d1 := &corpus.Document{ID: 1, Text: a2 + " " + b1}
		tuples := []relation.Tuple{{Rel: relation.PH, Arg1: a1, Arg2: a2}, {Rel: relation.PH, Arg1: b1, Arg2: b2}}
		checkFeatCalls(t, []featCall{
			{d: d0, train: true, tuples: tuples},
			{d: d0},
			{d: d1},
			{d: d1, train: true, tuples: tuples[1:]},
			{d: d0, train: true, tuples: tuples},
		})
	})
}

// TestFeaturizerConcurrent featurizes overlapping, shuffled slices of one
// corpus from 8 goroutines through one Featurizer. Ids then follow the
// schedule, but every row must name exactly the tokens of the serial
// row, every id must be dense and unique, and the cache must hold each
// document once.
func TestFeaturizerConcurrent(t *testing.T) {
	docs := testCorpus(11, 600)
	serial := NewFeaturizer()
	want := make([][]string, len(docs))
	for i, d := range docs {
		want[i] = rowNames(serial, serial.Features(d))
	}

	const workers = 8
	shared := NewFeaturizer()
	rows := make([][]vector.Sparse, workers)
	picked := make([][]int, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		start := g * len(docs) / (2 * workers)
		picked[g] = rand.New(rand.NewSource(int64(g))).Perm(len(docs) / 2)
		for k := range picked[g] {
			picked[g][k] += start
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range picked[g] {
				rows[g] = append(rows[g], shared.Features(docs[i]))
			}
		}(g)
	}
	wg.Wait()

	seen := make(map[int]bool)
	for g := range rows {
		for k, x := range rows[g] {
			i := picked[g][k]
			seen[i] = true
			if got := rowNames(shared, x); !slices.Equal(got, want[i]) {
				t.Fatalf("doc %d names %v, want %v", i, got, want[i])
			}
			if !sameBits(x, shared.Features(docs[i])) {
				t.Fatalf("doc %d: worker row differs from the cached row", i)
			}
		}
	}
	if got := shared.CacheSize(); got != len(seen) {
		t.Errorf("CacheSize = %d, want %d documents", got, len(seen))
	}
	names := make(map[string]int32, len(shared.names))
	for id, name := range shared.names {
		if prev, dup := names[name]; dup {
			t.Fatalf("%q interned twice, as %d and %d", name, prev, id)
		}
		names[name] = int32(id)
		if got, ok := shared.ids[name[len("w="):]]; !ok || got != int32(id) {
			t.Fatalf("intern table maps %q to %d (present %v), want %d", name, got, ok, id)
		}
	}
	wantNames := make(map[string]bool)
	for i := range seen {
		for _, name := range want[i] {
			wantNames[name] = true
		}
	}
	if len(names) != len(wantNames) {
		t.Errorf("%d features interned, want the %d the documents name", len(names), len(wantNames))
	}
}

// rowNames returns the sorted feature names of a row.
func rowNames(f *Featurizer, x vector.Sparse) []string {
	var names []string
	x.Range(func(i int32, _ float64) { names = append(names, f.FeatureName(i)) })
	slices.Sort(names)
	return names
}
