package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/metrics"
	"adaptiverank/internal/pipeline"
	"adaptiverank/internal/relation"
)

// reference is the ground truth every run of a workload is checked
// against: the extractor's labels over the whole collection.
type reference struct {
	labels *pipeline.Labels
	tuples map[relation.Tuple]bool
	docs   int
}

func newReference(l *pipeline.Labels) *reference {
	r := &reference{labels: l, tuples: make(map[relation.Tuple]bool), docs: l.Len()}
	for i := 0; i < l.Len(); i++ {
		for _, t := range l.Tuples(corpus.DocID(i)) {
			r.tuples[t] = true
		}
	}
	return r
}

// digests identify a run's result: its processing order and its tuple set.
type digests struct {
	order, tuples uint64
}

func digestOf(out runOutput) digests {
	h := fnv.New64a()
	var b [4]byte
	for _, id := range out.order {
		binary.LittleEndian.PutUint32(b[:], uint32(id))
		h.Write(b[:])
	}
	order := h.Sum64()
	ts := make([]string, len(out.tuples))
	for i, t := range out.tuples {
		ts[i] = t.String()
	}
	sort.Strings(ts)
	h.Reset()
	for _, s := range ts {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	return digests{order: order, tuples: h.Sum64()}
}

// check verifies one run's output against the reference and, when want
// is non-nil, against the digests of the workload's first run.
func (r *reference) check(out runOutput, want *digests) (digests, error) {
	got := digestOf(out)
	switch {
	case out.interrupted:
		return got, fmt.Errorf("run was interrupted")
	case out.docs != r.docs:
		return got, fmt.Errorf("processed %d docs, collection has %d", out.docs, r.docs)
	case out.useful != r.labels.NumUseful():
		return got, fmt.Errorf("found %d useful docs, reference has %d", out.useful, r.labels.NumUseful())
	case want != nil && got.order != want.order:
		return got, fmt.Errorf("order digest %016x differs from the first run's %016x", got.order, want.order)
	case want != nil && got.tuples != want.tuples:
		return got, fmt.Errorf("tuple digest %016x differs from the first run's %016x", got.tuples, want.tuples)
	}
	for _, t := range out.tuples {
		if !r.tuples[t] {
			return got, fmt.Errorf("tuple %v is not in the reference", t)
		}
	}
	return got, nil
}

// rankedAUC is the AUC of the ranked-phase order against the reference
// labels.
func (r *reference) rankedAUC(order []corpus.DocID) float64 {
	labels := make([]bool, len(order))
	for i, id := range order {
		labels[i] = r.labels.Useful(id)
	}
	return metrics.AUC(labels)
}
