// Package factcrawl implements the FactCrawl baseline (Boden et al.,
// WebDB 2011) as described in Section 2, and the strengthened Adaptive
// FactCrawl (A-FC) variant the paper introduces in Section 4. FactCrawl
// scores a document proportionally to the number and quality of the
// learned queries that retrieve it:
//
//	S(d) = sum_{q in Qd} F_beta(q) * F_beta_avg(method(q))
//
// where each query's F-measure is estimated once from labelled documents,
// and A-FC re-estimates query quality (and learns new queries) as the
// extraction process progresses.
package factcrawl

import (
	"sort"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/index"
	"adaptiverank/internal/sampling"
)

// Options configures FactCrawl.
type Options struct {
	// RetrieveK is the result-list depth that defines "query q retrieves
	// document d" (default 300, matching the paper's Lucene anecdote).
	RetrieveK int
	// NewQueryEvery makes A-FC learn new queries from the documents
	// processed so far every this many documents (default 250).
	NewQueryEvery int
	// MaxNewQueries caps the queries added per learning round (default 5).
	MaxNewQueries int
	// MaxTotalQueries bounds the total query set (default 60): FactCrawl
	// "relies on a small number of features" (Section 5), which is what
	// limits A-FC when new vocabulary emerges.
	MaxTotalQueries int
	// Seed drives A-FC's query learning.
	Seed int64
}

// beta weights precision against recall in the query F-measure: queries
// are scored by their F1.
const beta = 1

func (o *Options) defaults() {
	if o.RetrieveK == 0 {
		o.RetrieveK = 300
	}
	if o.NewQueryEvery == 0 {
		o.NewQueryEvery = 250
	}
	if o.MaxNewQueries == 0 {
		o.MaxNewQueries = 5
	}
	if o.MaxTotalQueries == 0 {
		o.MaxTotalQueries = 60
	}
}

// queryInfo is one learned query with its retrieval set and quality stats.
type queryInfo struct {
	text      string
	method    string
	retrieved map[corpus.DocID]bool
	// tp/fp/fn accumulate labelled evidence (sample + processed docs).
	tp, fp, fn float64
	f          float64
}

// FC is the FactCrawl scorer. The zero value is not usable; call New.
type FC struct {
	opts      Options
	idx       *index.Index
	queries   []*queryInfo
	byDoc     map[corpus.DocID][]int // doc -> indices of queries retrieving it
	methodAvg map[string]float64
	haveQuery map[string]bool

	adaptive      bool
	seenDocs      []*corpus.Document
	seenUseful    map[corpus.DocID]bool
	sinceNewQuery int
}

// New builds a FactCrawl scorer over the search index with the given
// learned query lists. adaptive selects the A-FC behaviour.
func New(idx *index.Index, lists []sampling.QueryList, opts Options, adaptive bool) *FC {
	opts.defaults()
	fc := &FC{
		opts:       opts,
		idx:        idx,
		byDoc:      make(map[corpus.DocID][]int),
		methodAvg:  make(map[string]float64),
		haveQuery:  make(map[string]bool),
		adaptive:   adaptive,
		seenUseful: make(map[corpus.DocID]bool),
	}
	for _, l := range lists {
		for _, q := range l.Queries {
			fc.addQuery(q, l.Method)
		}
	}
	return fc
}

// Name identifies the strategy.
func (fc *FC) Name() string {
	if fc.adaptive {
		return "A-FC"
	}
	return "FC"
}

func (fc *FC) addQuery(text, method string) {
	norm := sampling.NormalizeQuery(text)
	if norm == "" || fc.haveQuery[norm] {
		return
	}
	fc.haveQuery[norm] = true
	qi := &queryInfo{text: norm, method: method, retrieved: make(map[corpus.DocID]bool)}
	i := len(fc.queries)
	fc.queries = append(fc.queries, qi)
	for _, h := range fc.idx.Search(norm, fc.opts.RetrieveK) {
		qi.retrieved[h.Doc] = true
		fc.byDoc[h.Doc] = append(fc.byDoc[h.Doc], i)
	}
}

// Prime estimates initial query quality from the labelled sample, exactly
// once, as FactCrawl does (Section 2).
func (fc *FC) Prime(sample []*corpus.Document, useful func(corpus.DocID) bool) {
	for _, d := range sample {
		fc.account(d, useful(d.ID))
		if fc.adaptive {
			fc.seenDocs = append(fc.seenDocs, d)
			fc.seenUseful[d.ID] = useful(d.ID)
		}
	}
	fc.recompute()
}

// account attributes one labelled document to every query retrieving it.
func (fc *FC) account(d *corpus.Document, useful bool) {
	qs := fc.byDoc[d.ID]
	in := make(map[int]bool, len(qs))
	for _, qi := range qs {
		in[qi] = true
		if useful {
			fc.queries[qi].tp++
		} else {
			fc.queries[qi].fp++
		}
	}
	if useful {
		for i := range fc.queries {
			if !in[i] {
				fc.queries[i].fn++
			}
		}
	}
}

// recompute refreshes per-query F-measures and per-method averages.
func (fc *FC) recompute() {
	const beta2 = beta * beta
	sums := make(map[string]float64)
	counts := make(map[string]float64)
	for _, q := range fc.queries {
		q.f = 0
		if q.tp > 0 {
			p := q.tp / (q.tp + q.fp)
			r := q.tp / (q.tp + q.fn)
			q.f = (1 + beta2) * p * r / (beta2*p + r)
		}
		sums[q.method] += q.f
		counts[q.method]++
	}
	for m := range sums {
		fc.methodAvg[m] = sums[m] / counts[m]
	}
}

// Score returns S(d) under the current query-quality estimates.
func (fc *FC) Score(d *corpus.Document) float64 {
	var s float64
	for _, qi := range fc.byDoc[d.ID] {
		q := fc.queries[qi]
		s += q.f * fc.methodAvg[q.method]
	}
	return s
}

// Observe records one processed document. For base FC it is a no-op and
// returns false. For A-FC it updates query quality, periodically learns
// new queries from all processed documents, and returns true so the caller
// re-ranks the pending documents.
func (fc *FC) Observe(d *corpus.Document, useful bool) bool {
	if !fc.adaptive {
		return false
	}
	fc.account(d, useful)
	fc.seenDocs = append(fc.seenDocs, d)
	fc.seenUseful[d.ID] = useful
	fc.sinceNewQuery++
	if fc.sinceNewQuery >= fc.opts.NewQueryEvery && len(fc.queries) < fc.opts.MaxTotalQueries {
		fc.sinceNewQuery = 0
		fc.learnNewQueries()
	}
	fc.recompute()
	return true
}

// afcLearnWindow bounds the training set of A-FC's periodic query
// learning to the most recent processed documents: re-training over every
// processed document grows quadratically over a run, and a recency window
// is both tractable and closer to "adapting to what the extraction is
// finding now".
const afcLearnWindow = 1500

// learnNewQueries trains a QXtract-style classifier on the recently
// processed documents and adds the strongest unseen terms as new queries
// with method tag "a-fc". New queries start with the evidence of
// already-seen docs.
func (fc *FC) learnNewQueries() {
	docs := fc.seenDocs
	if len(docs) > afcLearnWindow {
		docs = docs[len(docs)-afcLearnWindow:]
	}
	sub := &subCollection{docs: docs}
	terms := sampling.LearnQueries(sub.collection(), func(d *corpus.Document) bool {
		return fc.seenUseful[d.ID]
	}, fc.opts.MaxNewQueries*2, fc.opts.Seed+int64(len(fc.queries)))
	added := 0
	for _, t := range terms {
		if fc.haveQuery[sampling.NormalizeQuery(t)] {
			continue
		}
		before := len(fc.queries)
		fc.addQuery(t, "a-fc")
		if len(fc.queries) == before {
			continue
		}
		// Retroactively account the labels we already know for the new
		// query's retrieved set.
		q := fc.queries[len(fc.queries)-1]
		for id, u := range fc.seenUseful {
			switch {
			case q.retrieved[id] && u:
				q.tp++
			case q.retrieved[id] && !u:
				q.fp++
			case u:
				q.fn++
			}
		}
		added++
		if added >= fc.opts.MaxNewQueries {
			break
		}
	}
}

// QueryCount reports how many queries the scorer currently uses.
func (fc *FC) QueryCount() int { return len(fc.queries) }

// QueryF returns the current F-measure estimates by query text, for
// diagnostics and tests.
func (fc *FC) QueryF() map[string]float64 {
	out := make(map[string]float64, len(fc.queries))
	for _, q := range fc.queries {
		out[q.text] = q.f
	}
	return out
}

// subCollection adapts a document slice to the corpus.Collection API that
// sampling.LearnQueries expects, *without* renumbering the documents
// (corpus.NewCollection reassigns ids, which must not happen here).
type subCollection struct {
	docs []*corpus.Document
}

func (s *subCollection) collection() *corpus.Collection {
	// Sort by id for determinism; LearnQueries only iterates Docs().
	docs := append([]*corpus.Document(nil), s.docs...)
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	return corpus.FromDocs(docs)
}
