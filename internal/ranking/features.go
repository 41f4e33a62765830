// Package ranking implements the paper's core contribution: the two online
// learning-to-rank strategies with in-training feature selection, BAgg-IE
// and RSVM-IE (Section 3.1), plus the Random and Perfect reference rankers
// used in the evaluation figures.
package ranking

import (
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
// lock covers interning every token and caching the row. Feature ids
// are assigned in first-seen order, so a featurizer used from one
// goroutine assigns deterministic ids.
type Featurizer struct {
	// mu guards the intern table and the row cache together.
	mu    sync.RWMutex
	ids   map[string]int32 // bare token → feature id, or stopword
	names []string         // feature id → "w=<token>"
	cache map[corpus.DocID]vector.Sparse
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

// scratch is one cold featurization's reusable buffers.
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
		s.ids = f.intern(s.ids[:0], &s.toks, 0, s.toks.Len())
		slices.Sort(s.ids)
		x = vector.Binary(slices.Clone(slices.Compact(s.ids)))
		f.cache[d.ID] = x
	}
	f.mu.Unlock()
	//lint:allow detrand the scratch is reset before use and never reaches a row
	scratchPool.Put(s)
	return x
}

// TrainingFeatures returns the feature vector of a labelled document,
// boosting the word features that appear as attribute values of its
// extracted tuples. The boosted vector is not cached.
func (f *Featurizer) TrainingFeatures(d *corpus.Document, tuples []relation.Tuple) vector.Sparse {
	if len(tuples) == 0 {
		return f.Features(d)
	}
	//lint:allow detrand the scratch is reset before use and never reaches a row
	s := scratchPool.Get().(*scratch)
	s.toks.Reset()
	s.toks.Append(d.Text)
	words := s.toks.Len()
	for _, t := range tuples {
		s.toks.Append(t.Arg1)
		s.toks.Append(t.Arg2)
	}
	f.mu.Lock()
	s.ids = f.intern(s.ids[:0], &s.toks, 0, words)
	text := len(s.ids)
	s.ids = f.intern(s.ids, &s.toks, words, s.toks.Len())
	f.mu.Unlock()
	counts := make(map[int32]float64, len(s.ids))
	for _, id := range s.ids[:text] {
		counts[id] = 1
	}
	for _, id := range s.ids[text:] {
		counts[id] += tupleBoost
	}
	//lint:allow detrand the scratch is reset before use and never reaches a row
	scratchPool.Put(s)
	return vector.FromCounts(counts).Normalize()
}

// intern appends the feature id of each of toks' tokens i in [from, to)
// to ids, skipping one-byte tokens and stopwords and interning new
// tokens in order. f.mu must be held for writing.
func (f *Featurizer) intern(ids []int32, toks *tokenize.Tokens, from, to int) []int32 {
	for i := from; i < to; i++ {
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
