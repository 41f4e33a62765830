// Package extract implements the information extraction systems of the
// paper's experimental setting (Section 4): entity recognizers of several
// model families (dictionary, pattern, supervised HMM, structured
// perceptron) combined with relation extractors (distance-based, linear
// SVM, subsequence-kernel nearest-exemplar). Each relation in Table 1 gets
// the system mix the paper describes. The ranking layer treats every
// extractor as an already-trained black box, exactly as in the paper.
package extract

import (
	"context"
	"sort"
	"sync"
	"time"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/tokenize"
)

// Span is an entity mention: token interval [Start, End) in a sentence.
type Span struct {
	Type  string
	Start int
	End   int
	Text  string
}

// Sentence is one sentence as recognizers and relation classifiers see
// it: its tokens as written and lowercased (Lower[i] is
// strings.ToLower(Cased[i])), and scratch a tagger reuses.
type Sentence struct {
	Cased, Lower []string
	states       []int
}

// Recognizer finds entity mentions of one type in a tokenized sentence.
// A recognizer is a pure function of the sentence's tokens.
type Recognizer interface {
	// Recognize appends the spans found in s to dst and returns the
	// extended slice.
	Recognize(dst []Span, s *Sentence) []Span
	// Type names the entity type this recognizer produces.
	Type() string
}

// Extractor is the black-box information extraction system interface the
// ranking pipeline consumes: documents in, tuples out, plus the simulated
// per-document CPU cost of the underlying system.
type Extractor interface {
	Relation() relation.Relation
	Extract(d *corpus.Document) []relation.Tuple
	SimulatedCost() time.Duration
}

// ContextExtractor is the fault-aware extension of Extractor: extraction
// that can be cancelled or time out, and that can fail. The resilience
// layer (internal/pipeline) prefers this interface when the wrapped
// system implements it; plain Extractors are treated as infallible and
// non-blocking. See Flaky for the fault-injecting reference
// implementation.
type ContextExtractor interface {
	Extractor
	// ExtractContext extracts tuples from d, honouring ctx cancellation
	// and deadlines. A nil error means the returned tuples are the
	// system's final answer for d; an error means the attempt failed and
	// yielded nothing.
	ExtractContext(ctx context.Context, d *corpus.Document) ([]relation.Tuple, error)
}

// ExtractContext runs e on d through the fault-aware path when e
// implements ContextExtractor, and falls back to the infallible Extract
// otherwise (checking ctx once up front, so cancelled pipelines do not
// start new work on legacy extractors).
func ExtractContext(ctx context.Context, e Extractor, d *corpus.Document) ([]relation.Tuple, error) {
	if ce, ok := e.(ContextExtractor); ok {
		return ce.ExtractContext(ctx, d)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.Extract(d), nil
}

// Useful reports whether the extractor produces at least one tuple for d —
// the paper's definition of a useful document.
func Useful(e Extractor, d *corpus.Document) bool {
	return len(e.Extract(d)) > 0
}

// pairClassifier decides whether a candidate (arg1, arg2) span pair in a
// sentence expresses the relation.
type pairClassifier interface {
	classify(s *Sentence, arg1, arg2 Span) bool
}

// sentenceExtractor is the shared implementation: recognize arg1 and arg2
// entities per sentence, classify every cross pair, dedupe tuples.
//
// It is a cascade. A tuple needs a span from each recognizer, and each
// recognizer is a pure function of the sentence, so the one that runs
// first decides on its own whether the other runs at all; the tuples are
// the same in either order. A sequence tagger costs far more per sentence
// than a gazetteer or a pattern, and matches more sentences, so build
// makes a tagger run second.
type sentenceExtractor struct {
	rel        relation.Relation
	arg1, arg2 Recognizer
	classifier pairClassifier
	arg2First  bool // recognize arg2 before arg1
}

// scratch is one Extract call's reusable state. It is pooled, so
// concurrent calls (labelling workers, the live pipeline's workers) each
// hold their own.
type scratch struct {
	doc                     tokenize.Doc
	sent                    Sentence
	firstSpans, secondSpans []Span
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func (e *sentenceExtractor) Relation() relation.Relation { return e.rel }

func (e *sentenceExtractor) SimulatedCost() time.Duration { return e.rel.ExtractionCost() }

func (e *sentenceExtractor) Extract(d *corpus.Document) []relation.Tuple {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.doc.Split(d.Text)
	s := &sc.sent
	first, second := e.arg1, e.arg2
	if e.arg2First {
		first, second = e.arg2, e.arg1
	}
	seen := make(map[relation.Tuple]bool)
	var out []relation.Tuple
	for k := 0; k < sc.doc.Len(); k++ {
		s.Cased, s.Lower = sc.doc.Sentence(k)
		sc.firstSpans = first.Recognize(sc.firstSpans[:0], s)
		if len(sc.firstSpans) == 0 {
			continue
		}
		sc.secondSpans = second.Recognize(sc.secondSpans[:0], s)
		if len(sc.secondSpans) == 0 {
			continue
		}
		a1, a2 := sc.firstSpans, sc.secondSpans
		if e.arg2First {
			a1, a2 = a2, a1
		}
		for _, s1 := range a1 {
			for _, s2 := range a2 {
				if spansOverlap(s1, s2) {
					continue
				}
				if !e.classifier.classify(s, s1, s2) {
					continue
				}
				t := relation.Tuple{Rel: e.rel, Arg1: s1.Text, Arg2: s2.Text}
				if !seen[t] {
					seen[t] = true
					out = append(out, t)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Arg1 != out[j].Arg1 {
			return out[i].Arg1 < out[j].Arg1
		}
		return out[i].Arg2 < out[j].Arg2
	})
	return out
}

func spansOverlap(a, b Span) bool {
	return a.Start < b.End && b.Start < a.End
}

var (
	registry   sync.Map // relation.Relation -> *sync.Once + Extractor
	registryMu sync.Mutex
	extractors = map[relation.Relation]Extractor{}
)

// Get returns the trained extraction system for rel, constructing (and
// training) it on first use. Construction is deterministic, so repeated
// processes build identical extractors.
func Get(rel relation.Relation) Extractor {
	registryMu.Lock()
	defer registryMu.Unlock()
	if e, ok := extractors[rel]; ok {
		return e
	}
	e := build(rel)
	extractors[rel] = e
	return e
}

// build assembles the per-relation system mix of Section 4 and fixes the
// cascade order once: a sequence tagger runs second.
func build(rel relation.Relation) Extractor {
	e := systemMix(rel)
	_, tagger1 := e.arg1.(*taggerRecognizer)
	_, tagger2 := e.arg2.(*taggerRecognizer)
	e.arg2First = tagger1 && !tagger2
	return e
}

// systemMix returns each relation's recognizers and relation classifier.
func systemMix(rel relation.Relation) *sentenceExtractor {
	switch rel {
	case relation.PO:
		// HMM person NER + pattern organization NER + SVM relation
		// classifier.
		return &sentenceExtractor{
			rel:        rel,
			arg1:       personHMM(),
			arg2:       newOrgRecognizer(),
			classifier: newPOSVM(),
		}
	case relation.DO:
		// Dictionary disease NER + pattern temporal NER +
		// distance-based relation predictor.
		return &sentenceExtractor{
			rel:        rel,
			arg1:       newDictionaryRecognizer("Disease", diseasePhrases()),
			arg2:       newTemporalRecognizer(),
			classifier: distanceClassifier{maxGap: 8},
		}
	case relation.PC:
		return &sentenceExtractor{
			rel:        rel,
			arg1:       personHMM(),
			arg2:       newDictionaryRecognizer("Career", careerPhrases()),
			classifier: kernelClassifier(rel),
		}
	case relation.ND:
		// Perceptron (MEMM stand-in) disaster NER + location gazetteer +
		// subsequence-kernel relation classifier.
		return &sentenceExtractor{
			rel:        rel,
			arg1:       disasterTagger(relation.ND),
			arg2:       newDictionaryRecognizer("Location", locationPhrases()),
			classifier: kernelClassifier(rel),
		}
	case relation.MD:
		return &sentenceExtractor{
			rel:        rel,
			arg1:       disasterTagger(relation.MD),
			arg2:       newDictionaryRecognizer("Location", locationPhrases()),
			classifier: kernelClassifier(rel),
		}
	case relation.PH:
		return &sentenceExtractor{
			rel:        rel,
			arg1:       personHMM(),
			arg2:       newDictionaryRecognizer("Charge", chargePhrases()),
			classifier: kernelClassifier(rel),
		}
	case relation.EW:
		return &sentenceExtractor{
			rel:        rel,
			arg1:       newElectionRecognizer(),
			arg2:       personHMM(),
			classifier: kernelClassifier(rel),
		}
	}
	panic("extract: unknown relation")
}
