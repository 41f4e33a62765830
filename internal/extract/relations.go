package extract

import (
	"fmt"
	"strings"
	"sync"

	"adaptiverank/internal/learn"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/textgen"
	"adaptiverank/internal/tokenize"
	"adaptiverank/internal/vector"
)

// distanceClassifier links two entities when at most maxGap tokens separate
// them — the "distance between entities" relation predictor the paper uses
// for Disease–Outbreak.
type distanceClassifier struct {
	maxGap int
}

func (c distanceClassifier) classify(_ *Sentence, arg1, arg2 Span) bool {
	gap := arg2.Start - arg1.End
	if arg1.Start > arg2.Start {
		gap = arg1.Start - arg2.End
	}
	return gap >= 0 && gap <= c.maxGap
}

// pairContext renders the lexical context of a candidate pair as a token
// sequence with semantic-role placeholders: up to two tokens before the
// first entity, the tokens between the entities, one token after the
// second, and "<arg1>"/"<arg2>" markers. Both the subsequence-kernel
// classifier and its exemplars are built from this rendering; lower holds
// the sentence's lowercased tokens.
func pairContext(lower []string, arg1, arg2 Span) []string {
	first, second := arg1, arg2
	firstIs1 := true
	if arg2.Start < arg1.Start {
		first, second = arg2, arg1
		firstIs1 = false
	}
	role := func(isFirst bool) string {
		if isFirst == firstIs1 {
			return "<arg1>"
		}
		return "<arg2>"
	}
	var ctx []string
	for i := first.Start - 2; i < first.Start; i++ {
		if i >= 0 {
			ctx = append(ctx, lower[i])
		}
	}
	ctx = append(ctx, role(true))
	for i := first.End; i < second.Start; i++ {
		ctx = append(ctx, lower[i])
	}
	ctx = append(ctx, role(false))
	if second.End < len(lower) {
		ctx = append(ctx, lower[second.End])
	}
	return ctx
}

// ssKernelClassifier is the subsequence-kernel nearest-exemplar relation
// classifier (Bunescu & Mooney in the paper's setting), used for PC, ND,
// MD, PH, and EW.
type ssKernelClassifier struct {
	scorer *learn.ExemplarScorer
	maxGap int
	// triggers gates the kernel: the pair context must contain at least
	// one relation-specific trigger token. This lexicalized gate is what
	// keeps structurally similar sentences of *other* relations (which
	// share the news-prose skeleton) from matching.
	triggers map[string]bool
}

func (c *ssKernelClassifier) classify(s *Sentence, arg1, arg2 Span) bool {
	gap := arg2.Start - arg1.End
	if arg1.Start > arg2.Start {
		gap = arg1.Start - arg2.End
	}
	if gap < 0 || gap > c.maxGap {
		return false
	}
	ctx := pairContext(s.Lower, arg1, arg2)
	hasTrigger := false
	for _, t := range ctx {
		if c.triggers[t] {
			hasTrigger = true
			break
		}
	}
	if !hasTrigger {
		return false
	}
	return c.scorer.Match(ctx)
}

var (
	kernelOnce sync.Once
	kernelCls  map[relation.Relation]*ssKernelClassifier
)

// kernelClassifier returns the exemplar-based kernel classifier for rel.
// Exemplars mirror the trigger constructions each extraction system was
// built for; sentences expressing the relation in other constructions fall
// below the threshold, which is what bounds extractor recall in practice.
func kernelClassifier(rel relation.Relation) *ssKernelClassifier {
	kernelOnce.Do(buildKernelClassifiers)
	c, ok := kernelCls[rel]
	if !ok {
		panic(fmt.Sprintf("extract: no kernel classifier for %v", rel))
	}
	return c
}

func buildKernelClassifiers() {
	kernelCls = make(map[relation.Relation]*ssKernelClassifier)
	k := learn.NewSubseqKernel(3, 0.75)
	ex := func(rel relation.Relation, threshold float64, maxGap int, triggers []string, exemplars ...string) {
		var exs [][]string
		for _, e := range exemplars {
			exs = append(exs, strings.Fields(e))
		}
		sc := learn.NewExemplarScorer(k, threshold, exs)
		tr := make(map[string]bool, len(triggers))
		for _, t := range triggers {
			tr[t] = true
		}
		kernelCls[rel] = &ssKernelClassifier{scorer: sc, maxGap: maxGap, triggers: tr}
	}

	// Disaster relations: one exemplar per trigger verb plus the longer
	// easy constructions.
	var ndEx, mdEx []string
	for _, t := range textgen.NDTriggers {
		ndEx = append(ndEx,
			"a <arg1> "+t+" <arg2> on",
			"the <arg1> "+t+" parts of <arg2> overnight",
			"a <arg1> "+t+" the coast of <arg2>",
		)
	}
	for _, t := range textgen.MDTriggers {
		mdEx = append(mdEx,
			"a <arg1> "+t+" <arg2> on",
			"the <arg1> "+t+" parts of <arg2> overnight",
			"a <arg1> "+t+" the coast of <arg2>",
		)
	}
	ex(relation.ND, 0.50, 8, textgen.NDTriggers, ndEx...)
	ex(relation.MD, 0.50, 8, textgen.MDTriggers, mdEx...)

	fromTable := func(cs []textgen.Construction) (gates, exemplars []string) {
		gates = textgen.GateWords(cs)
		for _, c := range cs {
			exemplars = append(exemplars, c.Exemplar)
		}
		return gates, exemplars
	}
	phGates, phEx := fromTable(textgen.PHConstructions)
	ex(relation.PH, 0.45, 8, phGates, phEx...)

	ewGates, ewEx := fromTable(textgen.EWConstructions)
	ex(relation.EW, 0.45, 10, ewGates, ewEx...)

	pcGates, pcEx := fromTable(textgen.PCConstructions)
	ex(relation.PC, 0.45, 6, pcGates, pcEx...)
}

// poSVM is the linear SVM relation classifier for Person–Organization
// Affiliation (Giuliano et al. in the paper's setting), trained once on
// deterministic labelled pairs.
type poSVM struct {
	vocab *tokenize.Vocab
	model *learn.OnlineSVM
}

var (
	poOnce sync.Once
	poCls  *poSVM
)

func newPOSVM() *poSVM {
	poOnce.Do(func() {
		cls := &poSVM{
			vocab: tokenize.NewVocab(),
			model: learn.NewOnlineSVM(learn.ElasticNet{LambdaAll: 1e-3, LambdaL2: 1}, true),
		}
		pairs := poTrainingData(3000, 17)
		lower := make([][]string, len(pairs))
		for i, p := range pairs {
			for _, tok := range p.tokens {
				lower[i] = append(lower[i], strings.ToLower(tok))
			}
		}
		for epoch := 0; epoch < 4; epoch++ {
			for i, p := range pairs {
				y := -1.0
				if p.positive {
					y = 1
				}
				cls.model.Step(cls.features(lower[i], p.arg1, p.arg2, true), y)
			}
		}
		cls.model.Settle()
		poCls = cls
	})
	return poCls
}

// features builds the candidate-pair feature vector over a sentence's
// lowercased tokens: between-token bag, two-token windows around the
// entities, entity order, and a bucketed distance, following
// shallow-feature relation extraction practice. Training interns new
// features; inference only looks them up and drops the unseen ones, which
// have no weight, so the classifier stays read-only.
func (c *poSVM) features(lower []string, arg1, arg2 Span, train bool) vector.Sparse {
	first, second := arg1, arg2
	order := "per-first"
	if arg2.Start < arg1.Start {
		first, second = arg2, arg1
		order = "org-first"
	}
	counts := make(map[int32]float64)
	add := func(f string) {
		if train {
			counts[c.vocab.ID(f)]++
		} else if id, ok := c.vocab.Lookup(f); ok {
			counts[id]++
		}
	}
	for i := first.End; i < second.Start; i++ {
		add("bt=" + lower[i])
	}
	for i := first.Start - 2; i < first.Start; i++ {
		if i >= 0 {
			add("bf=" + lower[i])
		}
	}
	for i := second.End; i < second.End+2 && i < len(lower); i++ {
		add("af=" + lower[i])
	}
	add("order=" + order)
	gap := second.Start - first.End
	switch {
	case gap <= 1:
		add("dist=adjacent")
	case gap <= 3:
		add("dist=near")
	case gap <= 6:
		add("dist=mid")
	default:
		add("dist=far")
	}
	add("bias")
	return vector.FromCounts(counts)
}

func (c *poSVM) classify(s *Sentence, arg1, arg2 Span) bool {
	gap := arg2.Start - arg1.End
	if arg1.Start > arg2.Start {
		gap = arg1.Start - arg2.End
	}
	if gap < 0 || gap > 10 {
		return false
	}
	return c.model.Margin(c.features(s.Lower, arg1, arg2, false).Packed()) > 0
}

// FeatureCount exposes the learned feature-space size for diagnostics.
func (c *poSVM) FeatureCount() int { return c.vocab.Len() }
