package pipeline

import (
	"sync"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/factcrawl"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/vector"
)

// LabeledDoc is a processed document together with its extraction outcome.
type LabeledDoc struct {
	Doc    *corpus.Document
	Useful bool
	Tuples []relation.Tuple
}

// Strategy is a document-prioritization approach the pipeline can execute:
// the learned rankers (BAgg-IE, RSVM-IE), the FactCrawl baselines, and the
// Random/Perfect references all implement it.
type Strategy interface {
	// Name identifies the approach in results.
	Name() string
	// Init trains the initial model from the labelled document sample.
	Init(sample []LabeledDoc)
	// Score predicts the usefulness of a pending document.
	Score(d *corpus.Document) float64
	// Observe records a freshly processed document. It returns true when
	// the strategy changed its scores on its own and the pending
	// documents should be re-ranked now (A-FC re-ranks continuously;
	// learned strategies only change at detector-triggered updates).
	Observe(ld LabeledDoc) bool
	// Update folds the buffered documents processed since the last update
	// into the model; the pipeline calls it when the update detector
	// fires.
	Update(buffered []LabeledDoc)
}

// Modeler is implemented by strategies whose ranking is defined by a
// linear weight vector; update detection (Mod-C) and the search-interface
// query generation read it.
type Modeler interface {
	Model() *vector.Weights
}

// DocAttributor is implemented by strategies that can decompose a
// document's score into exact per-feature contributions (see
// ranking.Attribution); the explain substrate samples it for the
// top-ranked documents after each (re-)ranking.
type DocAttributor interface {
	Attribute(d *corpus.Document) (ranking.Attribution, bool)
}

// Learned wraps a ranking.Ranker (plus the shared featurizer) as a
// Strategy. This is the paper's approach: the ranker learns online from
// each labelled document presented to it; the pipeline decides *when* to
// present the buffered documents (the Update Detection step).
type Learned struct {
	R ranking.Ranker
	F *ranking.Featurizer
	// PlainTraining disables the tuple-attribute feature boost during
	// training (an ablation of the paper's "words as well as the
	// attribute values of tuples" feature design).
	PlainTraining bool
}

// NewLearned builds the strategy.
func NewLearned(r ranking.Ranker, f *ranking.Featurizer) *Learned {
	return &Learned{R: r, F: f}
}

// Name implements Strategy.
func (s *Learned) Name() string { return s.R.Name() }

// trainFeatures picks the training representation.
func (s *Learned) trainFeatures(ld LabeledDoc) vector.Sparse {
	if s.PlainTraining {
		return s.F.Features(ld.Doc)
	}
	return s.F.TrainingFeatures(ld.Doc, ld.Tuples)
}

// Init implements Strategy: the initial ranking model is trained on the
// sample, using tuple-attribute-boosted training features, and settled,
// so the rank pass's score workers read a plain dense vector.
func (s *Learned) Init(sample []LabeledDoc) {
	for _, ld := range sample {
		s.R.Learn(s.trainFeatures(ld), ld.Useful)
	}
	s.R.Settle()
}

// Score implements Strategy over the cached feature vector. The linear
// rankers score through the same margin kernel as ScoreBatch, so
// per-document scoring (the batch panic fallback) and batch scoring are
// interchangeable mid-run.
func (s *Learned) Score(d *corpus.Document) float64 {
	return s.R.Score(s.F.Features(d))
}

// BatchScorer is implemented by strategies with an allocation-free batch
// scoring fast path. ScoreBatch reports false when the strategy cannot
// batch-score (e.g. a Learned wrapping a ranker without a packed path);
// the caller then falls back to per-document Score. When it reports
// true, out[i] holds the score of docs[i] and is bitwise identical to
// Score(docs[i]).
type BatchScorer interface {
	ScoreBatch(docs []*corpus.Document, out []float64) bool
}

// packedScratch is the reusable per-batch buffer of packed feature views;
// a sync.Pool recycles it across the pipeline's score workers so
// steady-state batch scoring allocates nothing per chunk.
type packedScratch struct {
	xs []vector.Packed
}

// The pooled scratch holds only per-batch views, fully overwritten
// before each use; the detrand allow directives at the Get/Put sites
// below carry the determinism argument.
var scratchPool = sync.Pool{New: func() any { return new(packedScratch) }}

// ScoreBatch implements BatchScorer: featurize docs into a pooled slice
// of packed views and score them through the ranker's batch fast path.
// The scratch is cleared before being returned to the pool so it does not
// retain references to a finished run's feature cache.
func (s *Learned) ScoreBatch(docs []*corpus.Document, out []float64) bool {
	ps, ok := s.R.(ranking.PackedScorer)
	if !ok {
		return false
	}
	//lint:allow detrand pool reuse only affects buffer identity, never score values
	sc := scratchPool.Get().(*packedScratch)
	xs := sc.xs[:0]
	for _, d := range docs {
		xs = append(xs, s.F.FeaturesPacked(d))
	}
	ps.ScoreBatch(xs, out)
	clear(xs)
	sc.xs = xs[:0]
	//lint:allow detrand pool reuse only affects buffer identity, never score values
	scratchPool.Put(sc)
	return true
}

// Observe implements Strategy: learned models only change at updates.
func (s *Learned) Observe(LabeledDoc) bool { return false }

// Update implements Strategy: feed the buffered documents to the online
// learner (no retraining from scratch), then settle it once, as Init
// does.
func (s *Learned) Update(buffered []LabeledDoc) {
	for _, ld := range buffered {
		s.R.Learn(s.trainFeatures(ld), ld.Useful)
	}
	s.R.Settle()
}

// Model implements Modeler.
func (s *Learned) Model() *vector.Weights { return s.R.Model() }

// Attribute implements DocAttributor: decompose the document's score
// into exact per-feature contributions through the ranker's attribution
// path. It reports false when the wrapped ranker cannot attribute
// (no linear members). The packed feature view is the same one scoring
// uses, so Attribution.Score is bitwise identical to Score(d).
func (s *Learned) Attribute(d *corpus.Document) (ranking.Attribution, bool) {
	at, ok := s.R.(ranking.Attributor)
	if !ok {
		return ranking.Attribution{}, false
	}
	return at.Attribute(s.F.FeaturesPacked(d)), true
}

// Instrument implements obs.Instrumentable by forwarding to the wrapped
// ranker when it is itself instrumentable.
func (s *Learned) Instrument(reg *obs.Registry, rec obs.Recorder, tr *obs.Tracer) {
	if in, ok := s.R.(obs.Instrumentable); ok {
		in.Instrument(reg, rec, tr)
	}
}

// Perfect is the perfect-ordering reference: it scores documents by their
// oracle usefulness.
type Perfect struct {
	L *Labels
}

// Name implements Strategy.
func (p *Perfect) Name() string { return "Perfect" }

// Init implements Strategy (no-op).
func (p *Perfect) Init([]LabeledDoc) {}

// Score implements Strategy.
func (p *Perfect) Score(d *corpus.Document) float64 {
	if p.L.Useful(d.ID) {
		return 1
	}
	return 0
}

// Observe implements Strategy (no-op).
func (p *Perfect) Observe(LabeledDoc) bool { return false }

// Update implements Strategy (no-op).
func (p *Perfect) Update([]LabeledDoc) {}

// FCStrategy adapts the FactCrawl scorer (base or adaptive) to the
// Strategy interface.
type FCStrategy struct {
	FC *factcrawl.FC
	// RerankEvery batches A-FC's re-ranking to every n-th document
	// (1 = the paper's literal per-document behaviour).
	RerankEvery int
	sinceRerank int
}

// NewFCStrategy wraps fc.
func NewFCStrategy(fc *factcrawl.FC, rerankEvery int) *FCStrategy {
	if rerankEvery < 1 {
		rerankEvery = 1
	}
	return &FCStrategy{FC: fc, RerankEvery: rerankEvery}
}

// Name implements Strategy.
func (s *FCStrategy) Name() string { return s.FC.Name() }

// Init implements Strategy: estimate initial query quality from the sample.
func (s *FCStrategy) Init(sample []LabeledDoc) {
	docs := make([]*corpus.Document, len(sample))
	useful := make(map[corpus.DocID]bool, len(sample))
	for i, ld := range sample {
		docs[i] = ld.Doc
		useful[ld.Doc.ID] = ld.Useful
	}
	s.FC.Prime(docs, func(id corpus.DocID) bool { return useful[id] })
}

// Score implements Strategy.
func (s *FCStrategy) Score(d *corpus.Document) float64 { return s.FC.Score(d) }

// Observe implements Strategy.
func (s *FCStrategy) Observe(ld LabeledDoc) bool {
	changed := s.FC.Observe(ld.Doc, ld.Useful)
	if !changed {
		return false
	}
	s.sinceRerank++
	if s.sinceRerank >= s.RerankEvery {
		s.sinceRerank = 0
		return true
	}
	return false
}

// Update implements Strategy: A-FC updates itself in Observe.
func (s *FCStrategy) Update([]LabeledDoc) {}
