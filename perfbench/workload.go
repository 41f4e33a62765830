package main

import (
	"context"
	"fmt"
	"syscall"
	"time"

	"adaptiverank"
	"adaptiverank/internal/corpus"
	"adaptiverank/internal/extract"
	"adaptiverank/internal/pipeline"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/sampling"
	"adaptiverank/internal/update"
)

// runSeed is the pipeline's own seed (sampling, pair draws, Mod-C's
// shadow sampling). It is adaptiverank.Options' default, so the workload
// seed reaches the program only through the generated corpus.
const runSeed = 1

// workload is one adaptive-run configuration the benchmark measures.
type workload struct {
	name     string
	rel      relation.Relation
	live     bool // labels come from the extractor during the run
	strategy adaptiverank.Strategy
	detector adaptiverank.Detector
	workers  int
}

// workloads lists every workload by name; README.md gives the reason for
// each choice.
var workloads = []workload{
	{name: "live-rsvm-modc", rel: relation.PH, live: true,
		strategy: adaptiverank.RSVMIE, detector: adaptiverank.ModC, workers: 2},
	{name: "cached-bagg-topk", rel: relation.PO,
		strategy: adaptiverank.BAggIE, detector: adaptiverank.TopK, workers: 2},
	{name: "cached-rsvm-windf-1w", rel: relation.PH,
		strategy: adaptiverank.RSVMIE, detector: adaptiverank.WindF, workers: 1},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// corpusSeed derives the seed of the k-th corpus of a benchmark seed.
func corpusSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// program is the set-up state a run over one corpus needs: the trained
// extractor and, for the cached workloads, the labels precomputed from it.
type program struct {
	ex     extract.Extractor
	labels *pipeline.Labels // nil on live workloads
}

// setUp is the program's set-up for one corpus: training the extractor
// (once per process) and, on cached workloads, labelling the whole
// collection with it.
func (w workload) setUp(ctx context.Context, coll *corpus.Collection) (program, error) {
	p := program{ex: adaptiverank.BuiltinExtractor(w.rel)}
	if !w.live {
		l, err := pipeline.ComputeLabelsContext(ctx, p.ex, coll)
		if err != nil {
			return program{}, fmt.Errorf("computing labels: %w", err)
		}
		p.labels = l
	}
	return p, nil
}

// sampleSize is adaptiverank.RunContext's default initial sample size.
func sampleSize(n int) int {
	return max(1, min(500, n/10))
}

// options builds the pipeline.Options adaptiverank.RunContext builds for
// this workload's strategy and detector, over the given oracle.
func (w workload) options(coll *corpus.Collection, ex extract.Extractor, oracle pipeline.Oracle) pipeline.Options {
	feat := ranking.NewFeaturizer()
	var ranker ranking.Ranker
	if w.strategy == adaptiverank.BAggIE {
		ranker = ranking.NewBAggIE(ranking.BAggOptions{})
	} else {
		ranker = ranking.NewRSVMIE(ranking.RSVMOptions{Seed: runSeed})
	}
	var det update.Detector
	switch w.detector {
	case adaptiverank.ModC:
		alpha := 5.0
		if w.strategy == adaptiverank.BAggIE {
			alpha = 30
		}
		det = update.NewModC(ranker, 0.1, alpha, runSeed+100)
	case adaptiverank.TopK:
		det = update.NewTopK(update.TopKOptions{})
	case adaptiverank.WindF:
		det = update.NewWindF(coll.Len() / 50)
	}
	return pipeline.Options{
		Rel:            ex.Relation(),
		ExtractionCost: ex.SimulatedCost(),
		Coll:           coll,
		Labels:         oracle,
		Sample:         sampling.SRS(coll, sampleSize(coll.Len()), runSeed),
		Strategy:       pipeline.NewLearned(ranker, feat),
		Detector:       det,
		Featurizer:     feat,
		Workers:        w.workers,
	}
}

// runOutput is what one adaptive run produced, in the shape the output
// check needs.
type runOutput struct {
	order       []corpus.DocID
	tuples      []relation.Tuple
	docs        int // processed documents, sample included
	useful      int // processed documents that yielded tuples
	interrupted bool
}

func fromPipeline(res *pipeline.Result) runOutput {
	useful := res.SampleUseful
	for _, u := range res.OrderLabels {
		if u {
			useful++
		}
	}
	return runOutput{order: res.Order, tuples: res.Tuples, docs: res.SampleSize + len(res.Order),
		useful: useful, interrupted: res.Interrupted}
}

// runUntraced performs one adaptive run the way a user of the workload's
// entry point would: the public adaptiverank.RunContext for the live
// workload, pipeline.RunContext over precomputed labels for the cached
// ones. clock observes every labelled document.
func (w workload) runUntraced(ctx context.Context, coll *corpus.Collection, p program, clock *recallClock) (runOutput, error) {
	if w.live {
		res, err := adaptiverank.RunContext(ctx, coll, &countingExtractor{Extractor: p.ex, clock: clock},
			adaptiverank.Options{Strategy: w.strategy, Detector: w.detector, Workers: w.workers})
		if err != nil {
			return runOutput{}, err
		}
		return runOutput{order: res.Order, tuples: res.Tuples, docs: res.DocsProcessed,
			useful: res.UsefulFound, interrupted: res.Interrupted}, nil
	}
	res, err := pipeline.RunContext(ctx, w.options(coll, p.ex, &countingLabels{Labels: p.labels, clock: clock}))
	if err != nil {
		return runOutput{}, err
	}
	return fromPipeline(res), nil
}

// oracle returns the labelling oracle of a traced run: the same chain the
// untraced run uses, built from pipeline types so the tracer can wrap it.
func (w workload) oracle(p program, clock *recallClock) pipeline.Oracle {
	if w.live {
		return &pipeline.ExtractorOracle{Ex: &countingExtractor{Extractor: p.ex, clock: clock}}
	}
	return &countingLabels{Labels: p.labels, clock: clock}
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// recallClock stamps the wall and CPU time at which the processed
// documents first cover the target share of the reference-useful
// documents. The pipeline labels documents on one goroutine, so it needs
// no locking.
type recallClock struct {
	useful []bool // reference usefulness by DocID
	target int

	start    time.Time
	startCPU time.Duration

	calls, hits             int
	reached, reachedCPU     time.Duration
	callsAtReach, hitsReach int
	err                     error
}

func newRecallClock(ref *pipeline.Labels, share float64) *recallClock {
	useful := make([]bool, ref.Len())
	for i := range useful {
		useful[i] = ref.Useful(corpus.DocID(i))
	}
	target := int(share*float64(ref.NumUseful()) + 0.999999)
	return &recallClock{useful: useful, target: max(1, target)}
}

// begin resets the clock for a new run starting now.
func (c *recallClock) begin() error {
	c.calls, c.hits, c.reached, c.reachedCPU, c.callsAtReach, c.hitsReach = 0, 0, 0, 0, 0, 0
	c.start = time.Now()
	c.startCPU, c.err = processCPU()
	return c.err
}

func (c *recallClock) observe(id corpus.DocID) {
	c.calls++
	if !c.useful[id] {
		return
	}
	c.hits++
	if c.hits == c.target {
		c.reached = time.Since(c.start)
		cpu, err := processCPU()
		c.reachedCPU, c.err = cpu-c.startCPU, err
		c.callsAtReach, c.hitsReach = c.calls, c.hits
	}
}

// countingExtractor feeds every extraction to the recall clock.
type countingExtractor struct {
	extract.Extractor
	clock *recallClock
}

func (e *countingExtractor) Extract(d *corpus.Document) []relation.Tuple {
	e.clock.observe(d.ID)
	return e.Extractor.Extract(d)
}

// countingLabels feeds every precomputed-label lookup to the recall clock.
type countingLabels struct {
	*pipeline.Labels
	clock *recallClock
}

func (l *countingLabels) Label(d *corpus.Document) (bool, []relation.Tuple) {
	l.clock.observe(d.ID)
	return l.Labels.Label(d)
}

// freshCopy returns a copy of coll whose documents have empty token
// caches, so every run tokenizes its corpus as a first run over freshly
// loaded documents does.
func freshCopy(coll *corpus.Collection) *corpus.Collection {
	docs := make([]*corpus.Document, coll.Len())
	for i, d := range coll.Docs() {
		docs[i] = &corpus.Document{Title: d.Title, Text: d.Text}
	}
	return corpus.NewCollection(docs)
}
