// Package sampling implements the initial document sampling strategies of
// Section 4 — Simple Random Sampling (SRS) and Cyclic Query Sampling (CQS)
// — plus the QXtract-style SVM query learning that produces the query
// lists CQS cycles over.
package sampling

import (
	"math/rand"
	"sort"
	"strings"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/index"
	"adaptiverank/internal/learn"
	"adaptiverank/internal/tokenize"
	"adaptiverank/internal/vector"
)

// SRS picks n documents uniformly at random without replacement.
func SRS(coll *corpus.Collection, n int, seed int64) []*corpus.Document {
	rng := rand.New(rand.NewSource(seed))
	if n > coll.Len() {
		n = coll.Len()
	}
	perm := rng.Perm(coll.Len())[:n]
	sort.Ints(perm) // deterministic document order within the sample
	out := make([]*corpus.Document, n)
	for i, p := range perm {
		out[i] = coll.Docs()[p]
	}
	return out
}

// LearnQueries implements QXtract's SVM-based query generation: it trains a
// linear classifier to separate useful from useless documents of a labelled
// side collection (the TREC-like split) on word features, and returns the
// numQueries highest-positive-weight terms as single-term keyword queries.
func LearnQueries(coll *corpus.Collection, useful func(*corpus.Document) bool, numQueries int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	vocab := tokenize.NewVocab()
	feats := func(d *corpus.Document) vector.Sparse {
		counts := make(map[int32]float64)
		for _, tok := range d.Tokenize() {
			if len(tok) > 1 && !tokenize.IsStopword(tok) {
				counts[vocab.ID(tok)] = 1
			}
		}
		return vector.FromCounts(counts).Normalize()
	}

	// Build a balanced training set: all useful documents plus an equal
	// number of random useless ones (QXtract balances 5,000/5,000).
	var pos, neg []*corpus.Document
	for _, d := range coll.Docs() {
		if useful(d) {
			pos = append(pos, d)
		} else {
			neg = append(neg, d)
		}
	}
	if len(pos) == 0 {
		return nil
	}
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	if len(neg) > len(pos)*3 {
		neg = neg[:len(pos)*3]
	}
	type ex struct {
		x vector.Sparse
		y float64
	}
	var data []ex
	for _, d := range pos {
		data = append(data, ex{feats(d), 1})
	}
	for _, d := range neg {
		data = append(data, ex{feats(d), -1})
	}
	rng.Shuffle(len(data), func(i, j int) { data[i], data[j] = data[j], data[i] })

	model := learn.NewOnlineSVM(learn.ElasticNet{LambdaAll: 0.01, LambdaL2: 1}, true)
	for epoch := 0; epoch < 5; epoch++ {
		for _, e := range data {
			model.Step(e.x, e.y)
		}
	}
	model.Settle()

	top := model.Weights().TopK(numQueries * 2)
	queries := make([]string, 0, numQueries)
	for _, f := range top {
		if f.Weight <= 0 {
			continue // only usefulness-indicating terms become queries
		}
		queries = append(queries, vocab.Name(f.Index))
		if len(queries) == numQueries {
			break
		}
	}
	return queries
}

// CQS implements Cyclic Query Sampling: it iterates over the query list,
// and on each visit collects the yet-unseen documents among the next
// perQuery results of that query, until n documents are collected (or the
// result lists are exhausted).
func CQS(idx *index.Index, queries []string, n, perQuery int) []*corpus.Document {
	if perQuery <= 0 {
		perQuery = 20
	}
	results := make([][]index.Hit, len(queries))
	cursor := make([]int, len(queries))
	for i, q := range queries {
		results[i] = idx.SearchAll(q)
	}
	seen := make(map[corpus.DocID]bool, n)
	var out []*corpus.Document
	for len(out) < n {
		progress := false
		for i := range queries {
			if len(out) >= n {
				break
			}
			end := cursor[i] + perQuery
			if end > len(results[i]) {
				end = len(results[i])
			}
			for _, h := range results[i][cursor[i]:end] {
				if seen[h.Doc] {
					continue
				}
				seen[h.Doc] = true
				out = append(out, idx.Collection().Doc(h.Doc))
				if len(out) >= n {
					break
				}
			}
			if end > cursor[i] {
				progress = true
				cursor[i] = end
			}
		}
		if !progress {
			break // every result list exhausted
		}
	}
	return out
}

// QueryList is a learned query with the id of the generation method that
// produced it, as FactCrawl tracks per-method quality averages.
type QueryList struct {
	Method  string
	Queries []string
}

// JoinQueries flattens query lists into one cyclic order.
func JoinQueries(lists []QueryList) []string {
	var out []string
	for _, l := range lists {
		out = append(out, l.Queries...)
	}
	return out
}

// NormalizeQuery canonicalizes a query string for deduplication.
func NormalizeQuery(q string) string { return strings.ToLower(strings.TrimSpace(q)) }
