package adaptiverank_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"adaptiverank"
)

// TestDegenerateInputs runs every strategy and detector over degenerate
// collections, extractors and option values. The empty collection is
// refused with an error; every other run must return a Result whose
// counts agree with each other and with the input, and none may panic
// or hang.
func TestDegenerateInputs(t *testing.T) {
	docs := func(n int, text func(i int) string) *adaptiverank.Collection {
		ds := make([]*adaptiverank.Document, n)
		for i := range ds {
			ds[i] = &adaptiverank.Document{Text: text(i)}
		}
		return adaptiverank.NewCollection(ds)
	}
	one, err := adaptiverank.GenerateCorpus(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	corpora := []struct {
		name string
		coll *adaptiverank.Collection
	}{
		{"empty", docs(0, nil)},
		{"one document", one},
		{"all blank", docs(12, func(i int) string { return strings.Repeat(" \n", i%3) })},
		{"one unique token each", docs(12, func(i int) string { return fmt.Sprintf("tok%d", i) })},
	}

	rel := adaptiverank.PersonCareer
	extractors := []struct {
		name  string
		every bool
		ex    adaptiverank.Extractor
	}{
		{"finds nothing", false, adaptiverank.NewExtractor(rel, time.Millisecond,
			func(*adaptiverank.Document) []adaptiverank.Tuple { return nil })},
		{"finds one per document", true, adaptiverank.NewExtractor(rel, time.Millisecond,
			func(d *adaptiverank.Document) []adaptiverank.Tuple {
				return []adaptiverank.Tuple{{Rel: rel, Arg1: fmt.Sprint(d.ID), Arg2: "x"}}
			})},
	}
	options := []struct {
		name string
		opts adaptiverank.Options
	}{
		{"defaults", adaptiverank.Options{}},
		{"MaxDocs 1", adaptiverank.Options{MaxDocs: 1}},
		{"SampleSize 1", adaptiverank.Options{SampleSize: 1}},
		{"SampleSize over the collection", adaptiverank.Options{SampleSize: 1000}},
	}
	strategies := []adaptiverank.Strategy{adaptiverank.RSVMIE, adaptiverank.BAggIE, adaptiverank.RandomOrder}
	detectors := []adaptiverank.Detector{adaptiverank.ModC, adaptiverank.TopK, adaptiverank.WindF, adaptiverank.FeatS, adaptiverank.NoDetector}

	for _, c := range corpora {
		for _, e := range extractors {
			for _, o := range options {
				for _, s := range strategies {
					for _, d := range detectors {
						opts := o.opts
						opts.Strategy, opts.Detector, opts.Seed = s, d, 3
						name := fmt.Sprintf("%s/%s/%s/strategy %d/detector %d", c.name, e.name, o.name, s, d)
						checkDegenerateRun(t, name, c.coll, e.ex, e.every, opts)
					}
				}
			}
		}
	}
}

func checkDegenerateRun(t *testing.T, name string, coll *adaptiverank.Collection, ex adaptiverank.Extractor, every bool, opts adaptiverank.Options) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: panic: %v", name, r)
		}
	}()
	// A hang surfaces as an interrupted run rather than a stuck test.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := adaptiverank.RunContext(ctx, coll, ex, opts)
	if coll.Len() == 0 {
		if err == nil {
			t.Errorf("%s: empty collection accepted", name)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	if res.Interrupted {
		t.Errorf("%s: run did not finish within its deadline", name)
		return
	}
	seen := make(map[adaptiverank.DocID]bool, len(res.Order))
	for _, id := range res.Order {
		if id < 0 || int(id) >= coll.Len() || seen[id] {
			t.Errorf("%s: order holds unknown or repeated document %d", name, id)
			return
		}
		seen[id] = true
	}
	wantProcessed := coll.Len()
	if opts.MaxDocs > 0 {
		// The resolved sample size is not visible here, so only the
		// ranked phase is bounded.
		wantProcessed = res.DocsProcessed
		if len(res.Order) > opts.MaxDocs {
			t.Errorf("%s: ranked %d documents past MaxDocs %d", name, len(res.Order), opts.MaxDocs)
		}
	}
	wantUseful := 0
	if every {
		wantUseful = res.DocsProcessed
	}
	switch {
	case res.DocsProcessed != wantProcessed || len(res.Order) > res.DocsProcessed:
		t.Errorf("%s: processed %d (ranked %d) of %d documents", name, res.DocsProcessed, len(res.Order), coll.Len())
	case res.UsefulFound != wantUseful || len(res.Tuples) != wantUseful:
		t.Errorf("%s: %d useful documents and %d tuples, want %d of each", name, res.UsefulFound, len(res.Tuples), wantUseful)
	case res.Updates < 0 || (res.Updates > 0 && (opts.Detector == adaptiverank.NoDetector || opts.Strategy == adaptiverank.RandomOrder)):
		t.Errorf("%s: %d model updates", name, res.Updates)
	case len(res.Skipped) != 0 || res.Requeued != 0:
		t.Errorf("%s: %d skipped and %d requeued without faults", name, len(res.Skipped), res.Requeued)
	}
}
