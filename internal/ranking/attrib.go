package ranking

// Score attribution: the exact per-feature decomposition of a ranker's
// score, for the explain substrate (internal/obs/explain). A handful of
// features carry most of a sparse linear LTR model's signal, so listing
// the nonzero contributions w_i·x_i is both cheap (bounded by the
// document's support ∩ the model's support) and a complete explanation:
// the contract, pinned by tests, is that folding an Attribution back
// together reconstructs the ranker's score bit for bit.

import (
	"math"

	"adaptiverank/internal/learn"
	"adaptiverank/internal/vector"
)

// Contribution is one nonzero per-feature term w_i·x_i of a linear
// margin. Contributions are reported in ascending feature-index order —
// the fold order of the margin kernel — which is what makes the sum
// exact.
type Contribution struct {
	Index int32   `json:"index"`
	Value float64 `json:"value"`
}

// MemberAttribution decomposes one linear member's margin: summing
// Contribs in slice order and adding Bias reproduces Margin bitwise,
// and Margin is bitwise equal to the member's Margin(x).
type MemberAttribution struct {
	Bias     float64        `json:"bias"`
	Margin   float64        `json:"margin"`
	Contribs []Contribution `json:"contribs,omitempty"`
}

// Attribution is the full decomposition of one document's score.
// RSVM-IE has a single member and Score == Members[0].Margin. BAgg-IE
// has one member per committee classifier and Score is the sum of the
// members' logistic-normalized margins, accumulated in member order —
// exactly the expression Score evaluates, so Reconstruct returns the
// reported score bit for bit.
type Attribution struct {
	Score    float64             `json:"score"`
	Logistic bool                `json:"logistic,omitempty"`
	Members  []MemberAttribution `json:"members"`
}

// Reconstruct folds the attribution back into the score it explains:
// per member, contributions in order plus bias, logistic-normalized
// when Logistic is set, summed in member order. For an Attribution
// produced by an Attributor the result is bitwise equal to both
// Attribution.Score and the ranker's Score on the same document.
func (a Attribution) Reconstruct() float64 {
	var s float64
	for _, m := range a.Members {
		var margin float64
		for _, c := range m.Contribs {
			margin += c.Value
		}
		margin += m.Bias
		if a.Logistic {
			s += 1 / (1 + math.Exp(-margin))
		} else {
			s += margin
		}
	}
	return s
}

// Attributor is implemented by rankers whose score decomposes into
// per-feature contributions. The pipeline detects it by type assertion
// (like PackedScorer) and skips attribution capture for rankers without
// a linear structure to explain.
type Attributor interface {
	// Attribute explains the ranker's score of x: the returned
	// Attribution's Score is bitwise equal to Score and ScoreBatch on
	// the same document, and Reconstruct() rebuilds it from the parts.
	Attribute(x vector.Packed) Attribution
}

// attributeMember decomposes one OnlineSVM margin by visiting the margin
// kernel's nonzero products; Margin is bitwise equal to m.Margin(x).
func attributeMember(m *learn.OnlineSVM, x vector.Packed) MemberAttribution {
	var contribs []Contribution
	margin := m.Weights().Margin(x, m.Bias(), func(i int32, c float64) {
		contribs = append(contribs, Contribution{Index: i, Value: c})
	})
	return MemberAttribution{Bias: m.Bias(), Margin: margin, Contribs: contribs}
}

// Attribute implements Attributor: the RankSVM score is a single linear
// margin with no bias term.
func (r *RSVMIE) Attribute(x vector.Packed) Attribution {
	m := attributeMember(r.model, x)
	return Attribution{Score: m.Margin, Members: []MemberAttribution{m}}
}

// Attribute implements Attributor: one member per committee classifier,
// with the score accumulated over the members' logistic margins in
// member order exactly as Score does.
func (b *BAggIE) Attribute(x vector.Packed) Attribution {
	a := Attribution{Logistic: true, Members: make([]MemberAttribution, 0, len(b.members))}
	for _, m := range b.members {
		ma := attributeMember(m, x)
		a.Members = append(a.Members, ma)
		a.Score += 1 / (1 + math.Exp(-ma.Margin))
	}
	return a
}
