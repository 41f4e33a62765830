// Package ranking implements the paper's core contribution: the two online
// learning-to-rank strategies with in-training feature selection, BAgg-IE
// and RSVM-IE (Section 3.1), plus the Random and Perfect reference rankers
// used in the evaluation figures.
package ranking

import (
	"math/bits"
	"slices"
	"sync"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/tokenize"
	"adaptiverank/internal/vector"
)

// Featurizer maps documents to sparse feature vectors over a shared,
// growing vocabulary. Features are the document's content words (binary
// presence, L2-normalized). For labelled training documents, the attribute
// values of extracted tuples contribute extra weight on their word features
// (the paper trains on "words as well as the attribute values of tuples"),
// which transfers to unprocessed documents through the shared word space.
//
// A cold document is featurized in one pass: its text is cut into
// lowercase tokens in a reused buffer outside any lock, then one write
// lock covers interning every token, ordering the row's distinct ids
// through two bitmaps, and caching the row. Feature ids are assigned in
// first-seen order, so a featurizer used from one goroutine assigns
// deterministic ids. A training row is derived from the cached row.
type Featurizer struct {
	// mu guards the intern table, the row cache and the bitmaps together.
	mu    sync.RWMutex
	ids   map[string]int32 // bare token → feature id, or stopword
	names []string         // feature id → "w=<token>"
	cache map[corpus.DocID]vector.Sparse
	// present has bit id set for each id of the row being built, and
	// summary bit w for each nonzero word present[w]. Both are zero
	// between calls of distinct.
	present, summary []uint64
}

// NewFeaturizer returns a featurizer with its own vocabulary.
func NewFeaturizer() *Featurizer {
	return &Featurizer{ids: make(map[string]int32), cache: make(map[corpus.DocID]vector.Sparse)}
}

// tupleBoost is the extra count given to each tuple-attribute token in
// training feature vectors.
const tupleBoost = 2.0

// stopword is the intern-table entry of a stopword: a token that is
// looked up like any other but is never a feature.
const stopword = -1

// scratch is one featurization's reusable buffers: a cold document's
// text tokens, or a training row's tuple tokens, and their ids.
type scratch struct {
	toks tokenize.Tokens
	ids  []int32
}

// Scratches hold only per-call buffers that are reset before each use,
// so which one a call gets never reaches a feature id or a row.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Features returns the (cached) word feature vector of d. It is safe for
// concurrent use; note that documents are identified by DocID, so one
// Featurizer must not be shared across collections with clashing ids.
func (f *Featurizer) Features(d *corpus.Document) vector.Sparse {
	f.mu.RLock()
	x, ok := f.cache[d.ID]
	f.mu.RUnlock()
	if ok {
		return x
	}
	//lint:allow detrand the scratch is reset before use and never reaches a row
	s := scratchPool.Get().(*scratch)
	s.toks.Reset()
	s.toks.Append(d.Text)
	f.mu.Lock()
	if x, ok = f.cache[d.ID]; !ok {
		s.ids = f.intern(s.ids[:0], &s.toks)
		x = vector.Binary(f.distinct(s.ids))
		f.cache[d.ID] = x
	}
	f.mu.Unlock()
	//lint:allow detrand the scratch is reset before use and never reaches a row
	scratchPool.Put(s)
	return x
}

// TrainingFeatures returns the feature vector of a labelled document,
// boosting the word features that appear as attribute values of its
// extracted tuples. It merges d's row, cached as Features caches it,
// with the sorted ids of the tuples' attribute tokens: a row id counts
// 1, each occurrence of a tuple token adds tupleBoost, and the counts
// are scaled to unit norm, bitwise FromCounts over them, then
// Normalize. The boosted vector is not cached.
func (f *Featurizer) TrainingFeatures(d *corpus.Document, tuples []relation.Tuple) vector.Sparse {
	row := f.Features(d)
	if len(tuples) == 0 {
		return row
	}
	//lint:allow detrand the scratch is reset before use and never reaches a row
	s := scratchPool.Get().(*scratch)
	s.toks.Reset()
	for _, t := range tuples {
		s.toks.Append(t.Arg1)
		s.toks.Append(t.Arg2)
	}
	f.mu.Lock()
	s.ids = f.intern(s.ids[:0], &s.toks)
	f.mu.Unlock()
	slices.Sort(s.ids)
	r, ts := row.Packed().Idx, s.ids
	idx := make([]int32, 0, len(r)+len(ts))
	val := make([]float64, 0, len(r)+len(ts))
	for i, j := 0, 0; i < len(r) || j < len(ts); {
		var id int32
		var c float64
		if i < len(r) && (j == len(ts) || r[i] <= ts[j]) {
			id, c = r[i], 1
			i++
		} else {
			id = ts[j]
		}
		for ; j < len(ts) && ts[j] == id; j++ {
			c += tupleBoost
		}
		idx, val = append(idx, id), append(val, c)
	}
	//lint:allow detrand the scratch is reset before use and never reaches a row
	scratchPool.Put(s)
	return vector.Unit(idx, val)
}

// intern appends the feature id of each of toks' tokens to ids,
// skipping one-byte tokens and stopwords and interning new tokens in
// order. f.mu must be held for writing.
func (f *Featurizer) intern(ids []int32, toks *tokenize.Tokens) []int32 {
	for i := 0; i < toks.Len(); i++ {
		tok := toks.At(i)
		if len(tok) < 2 {
			continue
		}
		id, ok := f.ids[string(tok)]
		if !ok {
			id = f.add(tok)
		}
		if id != stopword {
			ids = append(ids, id)
		}
	}
	return ids
}

// distinct returns the distinct ids of ids in ascending order, in a new
// slice, without comparing any two: it marks each id in present and its
// word in summary, then walks summary's set bits and each marked word's,
// clearing both as it goes. That costs O(len(ids) + vocabulary/4096).
// f.mu must be held for writing.
func (f *Featurizer) distinct(ids []int32) []int32 {
	for 64*len(f.present) < len(f.names) {
		f.present = append(f.present, 0)
		if 64*len(f.summary) < len(f.present) {
			f.summary = append(f.summary, 0)
		}
	}
	n := 0
	for _, id := range ids {
		w, bit := id>>6, uint64(1)<<(id&63)
		if f.present[w]&bit == 0 {
			f.present[w] |= bit
			f.summary[w>>6] |= 1 << (w & 63)
			n++
		}
	}
	out := make([]int32, 0, n)
	for i, sum := range f.summary {
		for ; sum != 0; sum &= sum - 1 {
			w := i<<6 | bits.TrailingZeros64(sum)
			for word := f.present[w]; word != 0; word &= word - 1 {
				out = append(out, int32(w<<6|bits.TrailingZeros64(word)))
			}
			f.present[w] = 0
		}
		f.summary[i] = 0
	}
	return out
}

// add enters a token not yet in the intern table: a stopword as
// stopword, any other token as the next feature id. The feature's name
// and its table key share one allocation.
func (f *Featurizer) add(tok []byte) int32 {
	if tokenize.IsStopword(string(tok)) {
		f.ids[string(tok)] = stopword
		return stopword
	}
	name := "w=" + string(tok)
	id := int32(len(f.names))
	f.ids[name[len("w="):]] = id
	f.names = append(f.names, name)
	return id
}

// FeatureName resolves a feature id back to its string (e.g. "w=lava").
func (f *Featurizer) FeatureName(id int32) string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.names[id]
}

// CacheSize reports how many documents have cached feature vectors.
func (f *Featurizer) CacheSize() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.cache)
}
