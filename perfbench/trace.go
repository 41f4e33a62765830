package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/pipeline"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/update"
	"adaptiverank/internal/vector"
)

// The traced run times each layer from outside the program: wrappers
// around the calls into the layers' public functions record one span per
// call. Spans stay in memory until the run ends.

// layer names the span kinds.
type layer uint8

const (
	layerExtract layer = iota
	layerFeaturize
	layerScore
	layerTrainInit
	layerTrainUpdate
	layerDetectPrime
	layerDetectObserve
	layerDetectReset
)

var layerNames = [...]string{"extract", "featurize", "score", "train.init", "train.update",
	"detect.prime", "detect.observe", "detect.reset"}

func (l layer) MarshalText() ([]byte, error) { return []byte(layerNames[l]), nil }

// span is one timed call. Worker is the calling goroutine's id for
// featurize and score spans (which run on the rank pass's workers) and 0
// for the rest, which run on the pipeline's goroutine. Pass numbers the
// rank pass a featurize or score span belongs to.
type span struct {
	Layer  layer `json:"layer"`
	Pass   int32 `json:"pass"`
	Worker int64 `json:"worker"`
	Start  int64 `json:"start_ns"` // since the tracer's origin
	End    int64 `json:"end_ns"`
}

// tracer collects the spans of one run.
type tracer struct {
	origin time.Time
	pass   atomic.Int32 // rank pass that the next featurize/score spans belong to

	mu    sync.Mutex
	spans []span

	// Written on the pipeline goroutine only.
	fired, folded int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) record(l layer, worker int64, start, end time.Time) {
	s := span{Layer: l, Pass: t.pass.Load(), Worker: worker,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since records a span from start to now on the pipeline goroutine.
func (t *tracer) since(l layer, start time.Time) { t.record(l, 0, start, time.Now()) }

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goroutineID() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// --- Oracle wrappers --------------------------------------------------

type tracedLabels struct {
	*countingLabels
	t *tracer
}

func (o *tracedLabels) Label(d *corpus.Document) (bool, []relation.Tuple) {
	start := time.Now()
	useful, ts := o.countingLabels.Label(d)
	o.t.since(layerExtract, start)
	return useful, ts
}

type tracedExtractorOracle struct {
	*pipeline.ExtractorOracle
	t *tracer
}

func (o *tracedExtractorOracle) Label(d *corpus.Document) (bool, []relation.Tuple) {
	start := time.Now()
	useful, ts := o.ExtractorOracle.Label(d)
	o.t.since(layerExtract, start)
	return useful, ts
}

// LabelContext is the path the pipeline takes: ExtractorOracle is a
// pipeline.ContextOracle.
func (o *tracedExtractorOracle) LabelContext(ctx context.Context, d *corpus.Document) (bool, []relation.Tuple, error) {
	start := time.Now()
	useful, ts, err := o.ExtractorOracle.LabelContext(ctx, d)
	o.t.since(layerExtract, start)
	return useful, ts, err
}

// --- Strategy wrapper -------------------------------------------------

// tracedLearned splits Learned.ScoreBatch into its featurize and score
// halves so each gets its own span; the scores are the same, because
// Learned.ScoreBatch makes the same two calls.
type tracedLearned struct {
	*pipeline.Learned
	t *tracer
}

func (s *tracedLearned) Init(sample []pipeline.LabeledDoc) {
	start := time.Now()
	s.Learned.Init(sample)
	s.t.since(layerTrainInit, start)
	s.t.folded += len(sample)
	s.t.pass.Add(1) // the first rank pass follows
}

func (s *tracedLearned) Update(buffered []pipeline.LabeledDoc) {
	start := time.Now()
	s.Learned.Update(buffered)
	s.t.since(layerTrainUpdate, start)
	s.t.folded += len(buffered)
	s.t.pass.Add(1) // a re-rank follows every update
}

var packedPool = sync.Pool{New: func() any { return new([]vector.Packed) }}

func (s *tracedLearned) ScoreBatch(docs []*corpus.Document, out []float64) bool {
	ps, ok := s.R.(ranking.PackedScorer)
	if !ok {
		return false
	}
	worker := goroutineID()
	buf := packedPool.Get().(*[]vector.Packed)
	xs := (*buf)[:0]
	start := time.Now()
	for _, d := range docs {
		xs = append(xs, s.F.FeaturesPacked(d))
	}
	mid := time.Now()
	ps.ScoreBatch(xs, out)
	end := time.Now()
	s.t.record(layerFeaturize, worker, start, mid)
	s.t.record(layerScore, worker, mid, end)
	clear(xs)
	*buf = xs[:0]
	packedPool.Put(buf)
	return true
}

// --- Detector wrappers ------------------------------------------------
//
// Each embeds the concrete detector, so every optional method the
// pipeline type-asserts (Prime) still resolves. Embedding the
// update.Detector interface instead would hide TopK.Prime and silently
// run a different program; the order digest check catches that.

func (t *tracer) observed(start time.Time, fired bool) {
	t.since(layerDetectObserve, start)
	if fired {
		t.fired++
	}
}

type tracedModC struct {
	*update.ModC
	t *tracer
}

func (d *tracedModC) Observe(x vector.Sparse, useful bool) bool {
	start := time.Now()
	fired := d.ModC.Observe(x, useful)
	d.t.observed(start, fired)
	return fired
}

func (d *tracedModC) Reset() {
	start := time.Now()
	d.ModC.Reset()
	d.t.since(layerDetectReset, start)
}

type tracedTopK struct {
	*update.TopK
	t *tracer
}

func (d *tracedTopK) Prime(xs []vector.Sparse, useful []bool) {
	start := time.Now()
	d.TopK.Prime(xs, useful)
	d.t.since(layerDetectPrime, start)
}

func (d *tracedTopK) Observe(x vector.Sparse, useful bool) bool {
	start := time.Now()
	fired := d.TopK.Observe(x, useful)
	d.t.observed(start, fired)
	return fired
}

func (d *tracedTopK) Reset() {
	start := time.Now()
	d.TopK.Reset()
	d.t.since(layerDetectReset, start)
}

type tracedWindF struct {
	*update.WindF
	t *tracer
}

func (d *tracedWindF) Observe(x vector.Sparse, useful bool) bool {
	start := time.Now()
	fired := d.WindF.Observe(x, useful)
	d.t.observed(start, fired)
	return fired
}

func (d *tracedWindF) Reset() {
	start := time.Now()
	d.WindF.Reset()
	d.t.since(layerDetectReset, start)
}

// instrument replaces the oracle, strategy and detector of opts with
// span-recording wrappers around the same values.
func instrument(opts *pipeline.Options, t *tracer) error {
	switch o := opts.Labels.(type) {
	case *pipeline.ExtractorOracle:
		opts.Labels = &tracedExtractorOracle{o, t}
	case *countingLabels:
		opts.Labels = &tracedLabels{o, t}
	default:
		return fmt.Errorf("instrument: unexpected oracle %T", opts.Labels)
	}
	l, ok := opts.Strategy.(*pipeline.Learned)
	if !ok {
		return fmt.Errorf("instrument: unexpected strategy %T", opts.Strategy)
	}
	opts.Strategy = &tracedLearned{l, t}
	switch d := opts.Detector.(type) {
	case *update.ModC:
		opts.Detector = &tracedModC{d, t}
	case *update.TopK:
		opts.Detector = &tracedTopK{d, t}
	case *update.WindF:
		opts.Detector = &tracedWindF{d, t}
	default:
		return fmt.Errorf("instrument: unexpected detector %T", opts.Detector)
	}
	return nil
}

// tracedRun is the outcome of one traced run.
type tracedRun struct {
	out      runOutput
	res      *pipeline.Result
	spans    []span
	wall     time.Duration
	coldDocs int // featurizer cache growth; the featurizer starts empty
	modelNNZ int
	fired    int
	folded   int
	clock    recallClock
}

// runTraced performs one traced run. wrap, when non-nil, replaces the
// detector after instrumentation (the self-test uses it to plant an
// interface-hiding wrapper).
func (w workload) runTraced(ctx context.Context, coll *corpus.Collection, p program, clock *recallClock,
	wrap func(update.Detector) update.Detector) (*tracedRun, error) {
	opts := w.options(coll, p.ex, w.oracle(p, clock))
	t := newTracer()
	if err := instrument(&opts, t); err != nil {
		return nil, err
	}
	if wrap != nil {
		opts.Detector = wrap(opts.Detector)
	}
	if err := clock.begin(); err != nil {
		return nil, err
	}
	res, err := pipeline.RunContext(ctx, opts)
	wall := time.Since(clock.start)
	if err == nil {
		err = clock.err
	}
	if err != nil {
		return nil, err
	}
	tr := &tracedRun{out: fromPipeline(res), res: res, spans: t.spans, wall: wall,
		coldDocs: opts.Featurizer.CacheSize(), fired: t.fired, folded: t.folded, clock: *clock}
	if m := opts.Strategy.(pipeline.Modeler).Model(); m != nil {
		tr.modelNNZ = m.NNZ()
	}
	return tr, nil
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals folds a traced run's spans into busy times per layer and,
// for the rank passes, the wall time their workers were active.
type layerTotals struct {
	busy       [len(layerNames)]time.Duration
	calls      [len(layerNames)]int
	passes     int
	workerSpan time.Duration // Σ over passes of the union of featurize/score spans
	slots      time.Duration // Σ over passes of workers × that union
}

func foldSpans(spans []span) layerTotals {
	var lt layerTotals
	byPass := map[int32][]span{}
	for _, s := range spans {
		lt.busy[s.Layer] += time.Duration(s.End - s.Start)
		lt.calls[s.Layer]++
		if s.Layer == layerFeaturize || s.Layer == layerScore {
			byPass[s.Pass] = append(byPass[s.Pass], s)
		}
	}
	lt.passes = len(byPass)
	for _, ss := range byPass {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		workers := map[int64]bool{}
		var union, curStart, curEnd int64
		for i, s := range ss {
			workers[s.Worker] = true
			if i == 0 || s.Start > curEnd {
				union += curEnd - curStart
				curStart, curEnd = s.Start, s.End
			} else if s.End > curEnd {
				curEnd = s.End
			}
		}
		union += curEnd - curStart
		lt.workerSpan += time.Duration(union)
		lt.slots += time.Duration(union * int64(len(workers)))
	}
	return lt
}
