// Package pipeline implements the end-to-end adaptive extraction loop of
// Figure 2: initial sampling and labelling, ranking generation, in-order
// tuple extraction, update detection, and periodic model updates with
// document re-ranking — over both document-access scenarios (full access
// and search-interface access).
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/extract"
	"adaptiverank/internal/relation"
)

// Oracle supplies extraction outcomes for documents as the pipeline
// processes them. Labels (precomputed, for experiments) and live
// extractor-backed implementations (the public API) both satisfy it.
type Oracle interface {
	// Label returns whether the document yields tuples, and the tuples.
	Label(d *corpus.Document) (useful bool, tuples []relation.Tuple)
	// TotalUseful returns the number of useful documents in the whole
	// collection when known (precomputed labels); ok=false otherwise,
	// in which case recall-based metrics are skipped.
	TotalUseful() (n int, ok bool)
}

// Labels holds the oracle extraction outcome for every document of a
// collection: whether the extraction system produces tuples for it, and
// which tuples. The pipeline consults it when a document is "processed"
// (the extraction itself is deterministic, so precomputing it once per
// (relation, collection) pair is equivalent to re-running the extractor,
// at a fraction of the wall-clock cost; the extraction CPU cost is
// accounted separately via the simulated cost model).
type Labels struct {
	rel       relation.Relation
	useful    []bool
	tuples    map[corpus.DocID][]relation.Tuple
	numUseful int
}

// ComputeLabels runs the extraction system over every document. Documents
// are processed in parallel: the built-in extractors are read-only at
// inference time, and each document is handled by exactly one goroutine.
// It panics if the extractor fails on any document; use
// ComputeLabelsContext for the error-returning, cancellable form.
func ComputeLabels(e extract.Extractor, coll *corpus.Collection) *Labels {
	//lint:allow ctxflow compat shim: the panicking legacy entry point has no ctx to thread
	l, err := ComputeLabelsContext(context.Background(), e, coll)
	if err != nil {
		panic(err)
	}
	return l
}

// ComputeLabelsContext is ComputeLabels with cancellation and fault
// attribution: a panic inside the extractor is recovered in the worker
// goroutine (where it would otherwise kill the whole process) and
// reported as an error naming the offending document; cancelling ctx
// stops the remaining work and returns ctx.Err().
func ComputeLabelsContext(ctx context.Context, e extract.Extractor, coll *corpus.Collection) (*Labels, error) {
	l := &Labels{
		rel:    e.Relation(),
		useful: make([]bool, coll.Len()),
		tuples: make(map[corpus.DocID][]relation.Tuple),
	}
	docs := coll.Docs()
	results := make([][]relation.Tuple, len(docs))
	errs := make([]error, len(docs))
	workers := max(1, min(runtime.GOMAXPROCS(0), len(docs)))
	extractOne := func(i int) (ts []relation.Tuple, err error) {
		defer func() {
			if p := recover(); p != nil {
				ts, err = nil, fmt.Errorf("pipeline: extractor panicked on doc %d: %v", docs[i].ID, p)
			}
		}()
		return extract.ExtractContext(ctx, e, docs[i])
	}
	var wg sync.WaitGroup
	chunk := (len(docs) + workers - 1) / workers
	for lo := 0; lo < len(docs); lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if ctx.Err() != nil {
					errs[i] = ctx.Err()
					return
				}
				results[i], errs[i] = extractOne(i)
			}
		}(lo, min(lo+chunk, len(docs)))
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("pipeline: labelling doc %d: %w", docs[i].ID, err)
		}
	}
	for i, ts := range results {
		if len(ts) > 0 {
			id := docs[i].ID
			l.useful[id] = true
			l.tuples[id] = ts
			l.numUseful++
		}
	}
	return l, nil
}

// Useful reports the oracle usefulness of a document.
func (l *Labels) Useful(id corpus.DocID) bool { return l.useful[id] }

// Tuples returns the tuples extracted from a document (nil when useless).
func (l *Labels) Tuples(id corpus.DocID) []relation.Tuple { return l.tuples[id] }

// NumUseful is the number of useful documents in the collection — the
// denominator of the recall metric.
func (l *Labels) NumUseful() int { return l.numUseful }

// Len is the collection size.
func (l *Labels) Len() int { return len(l.useful) }

// Relation identifies the extraction task.
func (l *Labels) Relation() relation.Relation { return l.rel }

// Label implements Oracle.
func (l *Labels) Label(d *corpus.Document) (bool, []relation.Tuple) {
	return l.useful[d.ID], l.tuples[d.ID]
}

// TotalUseful implements Oracle.
func (l *Labels) TotalUseful() (int, bool) { return l.numUseful, true }

type labelKey struct {
	rel  relation.Relation
	coll *corpus.Collection
}

var labelCache sync.Map // labelKey -> *Labels

// LabelsFor returns cached labels for (rel, coll), computing them on first
// use. The cache is keyed by collection identity, so prefix views must
// pass the *same* underlying collection and restrict afterwards.
func LabelsFor(rel relation.Relation, coll *corpus.Collection) *Labels {
	key := labelKey{rel, coll}
	if v, ok := labelCache.Load(key); ok {
		return v.(*Labels)
	}
	l := ComputeLabels(extract.Get(rel), coll)
	v, _ := labelCache.LoadOrStore(key, l)
	return v.(*Labels)
}

// Restrict returns a view of l limited to the first n documents (for the
// scalability experiments over growing collection prefixes).
func (l *Labels) Restrict(n int) *Labels {
	if n >= len(l.useful) {
		return l
	}
	r := &Labels{rel: l.rel, useful: l.useful[:n], tuples: l.tuples}
	for i := 0; i < n; i++ {
		if l.useful[i] {
			r.numUseful++
		}
	}
	return r
}
