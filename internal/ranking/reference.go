package ranking

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"adaptiverank/internal/vector"
)

// RandomRanker is the random-ordering reference of the evaluation figures:
// every document gets an i.i.d. pseudo-random score fixed at first sight.
type RandomRanker struct {
	// mu serializes draws: the pipeline's score workers call Score
	// concurrently, and a rand.Rand is not safe for concurrent use.
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandomRanker returns a seeded random ranker.
func NewRandomRanker(seed int64) *RandomRanker {
	return &RandomRanker{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Ranker.
func (r *RandomRanker) Name() string { return "Random" }

// Learn implements Ranker (no-op).
func (r *RandomRanker) Learn(vector.Sparse, bool) {}

// Score implements Ranker with a uniform pseudo-random score. Scores are
// drawn per call; the pipeline scores each pending document once per
// (re-)ranking, so the resulting order is a uniform random permutation.
func (r *RandomRanker) Score(vector.Sparse) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// Model implements Ranker (none).
func (r *RandomRanker) Model() *vector.Weights { return nil }

// Settle implements Ranker (no-op).
func (r *RandomRanker) Settle() {}

// Clone implements Ranker.
func (r *RandomRanker) Clone() Ranker {
	return &RandomRanker{rng: rand.New(rand.NewSource(r.rng.Int63()))}
}

// The perfect-ordering reference of the evaluation figures is implemented
// in the pipeline package (it needs oracle document labels, which live
// there); Random is a Ranker so it shares the learned-strategy code path.

// ---------------------------------------------------------------------------
// Reference learners. ReferenceRSVMIE and ReferenceBAggIE re-implement the
// paper's two ranking strategies from the formulas alone — dense-map
// weights, explicit Pegasos/elastic-net arithmetic, no shared code with
// internal/learn — as independent oracles for the golden parity test. They
// replicate the production randomness (reservoir seeds and draw order)
// and accumulate in the same index order, so scores agree to floating-
// point tolerance. They are test oracles, not Rankers: intentionally
// slow and minimal.
// ---------------------------------------------------------------------------

// refModel is a naive dense-map online SVM with Pegasos steps and
// proximal elastic-net shrinkage (mirrors learn.OnlineSVM by formula).
type refModel struct {
	lambdaAll, lambdaL2 float64
	useBias             bool

	w    map[int32]float64
	bias float64
	t    int
}

func newRefModel(lambdaAll, lambdaL2 float64, useBias bool) *refModel {
	return &refModel{lambdaAll: lambdaAll, lambdaL2: lambdaL2, useBias: useBias,
		w: make(map[int32]float64)}
}

// sortedEntries flattens a sparse vector into index-sorted pairs so the
// reference accumulates dot products in the same order as the production
// code (vector.Sparse stores entries sorted).
func sortedEntries(x vector.Sparse) ([]int32, []float64) {
	idx := make([]int32, 0, x.NNZ())
	val := make([]float64, 0, x.NNZ())
	x.Range(func(i int32, v float64) {
		idx = append(idx, i)
		val = append(val, v)
	})
	return idx, val
}

func (m *refModel) margin(idx []int32, val []float64) float64 {
	var sum float64
	for k, i := range idx {
		if w, ok := m.w[i]; ok {
			sum += w * val[k]
		}
	}
	return sum + m.bias
}

// step is one Pegasos sub-gradient step on the hinge loss followed by the
// elastic-net proximal shrinkage, written out from Section 3.1:
// eta_t = 1/(lambda_2 t) capped at 1; if y(w·x+b) < 1 then w += eta y x;
// then every weight decays by (1 - eta lambda_2) and is soft-thresholded
// by eta lambda_1, with weights that reach zero deleted.
func (m *refModel) step(idx []int32, val []float64, y float64) {
	m.t++
	lambda := m.lambdaAll * m.lambdaL2
	if lambda <= 0 {
		lambda = m.lambdaAll
		if lambda <= 0 {
			lambda = 1
		}
	}
	eta := 1 / (lambda * float64(m.t))
	if eta > 1 {
		eta = 1
	}

	if y*m.margin(idx, val) < 1 {
		for k, i := range idx {
			nv := m.w[i] + eta*y*val[k]
			if nv == 0 {
				delete(m.w, i)
			} else {
				m.w[i] = nv
			}
		}
		if m.useBias {
			m.bias += eta * y
		}
	}

	// Parenthesization matters: the production code multiplies eta by the
	// precomputed combined coefficients, and a different association here
	// would drift by an ulp per step and eventually flip hinge decisions.
	decay := 1 - eta*(m.lambdaAll*m.lambdaL2)
	if decay < 0 {
		decay = 0
	}
	thresh := eta * (m.lambdaAll * (1 - m.lambdaL2))
	for i, v := range m.w {
		nv := math.Abs(v)*decay - thresh
		if nv <= 0 {
			delete(m.w, i)
			continue
		}
		if v < 0 {
			nv = -nv
		}
		m.w[i] = nv
	}
}

// refDiff computes useful - useless as index-sorted pairs with exact-zero
// differences dropped: the difference vector the paper's pair step takes.
func refDiff(pos, neg vector.Sparse) ([]int32, []float64) {
	d := make(map[int32]float64)
	pos.Range(func(i int32, v float64) { d[i] += v })
	neg.Range(func(i int32, v float64) { d[i] -= v })
	idx := make([]int32, 0, len(d))
	//lint:allow detrand collection order is erased by the sort below
	for i, v := range d {
		if v != 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	val := make([]float64, len(idx))
	for k, i := range idx {
		val[k] = d[i]
	}
	return idx, val
}

// refReservoir is a uniform bounded sample replicating the production
// reservoir's RNG call sequence (one Intn per overflow add, one per draw).
type refReservoir struct {
	cap  int
	seen int
	data []vector.Sparse
	rng  *rand.Rand
}

func (r *refReservoir) add(x vector.Sparse) {
	r.seen++
	if len(r.data) < r.cap {
		r.data = append(r.data, x)
		return
	}
	if k := r.rng.Intn(r.seen); k < r.cap {
		r.data[k] = x
	}
}

func (r *refReservoir) sample() (vector.Sparse, bool) {
	if len(r.data) == 0 {
		return vector.Sparse{}, false
	}
	return r.data[r.rng.Intn(len(r.data))], true
}

// ReferenceRSVMIE is the from-the-formulas RSVM-IE oracle: stochastic
// pairwise hinge steps on (useful - useless) difference vectors with the
// Section 4 defaults (lambda = 0.1, L2 share 0.99, 4 pairs per example,
// 400-slot reservoirs).
type ReferenceRSVMIE struct {
	model   *refModel
	useful  *refReservoir
	useless *refReservoir
	pairs   int
}

// NewReferenceRSVMIE builds the oracle; seed must match the production
// ranker's so both draw identical pairing partners.
func NewReferenceRSVMIE(seed int64) *ReferenceRSVMIE {
	return &ReferenceRSVMIE{
		model:   newRefModel(0.1, 0.99, false),
		useful:  &refReservoir{cap: 400, rng: rand.New(rand.NewSource(seed*2 + 1))},
		useless: &refReservoir{cap: 400, rng: rand.New(rand.NewSource(seed*2 + 2))},
		pairs:   4,
	}
}

// Learn mirrors RSVMIE.Learn.
func (r *ReferenceRSVMIE) Learn(x vector.Sparse, useful bool) {
	if useful {
		r.useful.add(x)
		for i := 0; i < r.pairs; i++ {
			if neg, ok := r.useless.sample(); ok {
				idx, val := refDiff(x, neg)
				r.model.step(idx, val, 1)
			}
		}
		return
	}
	r.useless.add(x)
	for i := 0; i < r.pairs; i++ {
		if pos, ok := r.useful.sample(); ok {
			idx, val := refDiff(pos, x)
			r.model.step(idx, val, 1)
		}
	}
}

// Score mirrors RSVMIE.Score (the linear margin w·x).
func (r *ReferenceRSVMIE) Score(x vector.Sparse) float64 {
	idx, val := sortedEntries(x)
	return r.model.margin(idx, val)
}

// ReferenceBAggIE is the from-the-formulas BAgg-IE oracle: a three-member
// committee of biased online SVMs (lambda = 0.5, L2 share 0.99) fed
// round-robin through label-balanced holdback queues of capacity 2000,
// scoring by summed logistic outputs.
type ReferenceBAggIE struct {
	members []*refModel
	qPos    [][]vector.Sparse
	qNeg    [][]vector.Sparse
	next    int
	qCap    int
}

// NewReferenceBAggIE builds the oracle with the production defaults.
func NewReferenceBAggIE() *ReferenceBAggIE {
	const members = 3
	b := &ReferenceBAggIE{
		members: make([]*refModel, members),
		qPos:    make([][]vector.Sparse, members),
		qNeg:    make([][]vector.Sparse, members),
		qCap:    2000,
	}
	for i := range b.members {
		b.members[i] = newRefModel(0.5, 0.99, true)
	}
	return b
}

// Learn mirrors BAggIE.Learn.
func (b *ReferenceBAggIE) Learn(x vector.Sparse, useful bool) {
	m := b.next
	b.next = (b.next + 1) % len(b.members)
	if useful {
		b.qPos[m] = append(b.qPos[m], x)
		if len(b.qPos[m]) > b.qCap {
			b.qPos[m] = b.qPos[m][1:]
		}
	} else {
		b.qNeg[m] = append(b.qNeg[m], x)
		if len(b.qNeg[m]) > b.qCap {
			b.qNeg[m] = b.qNeg[m][1:]
		}
	}
	for len(b.qPos[m]) > 0 && len(b.qNeg[m]) > 0 {
		pos, neg := b.qPos[m][0], b.qNeg[m][0]
		b.qPos[m] = b.qPos[m][1:]
		b.qNeg[m] = b.qNeg[m][1:]
		pi, pv := sortedEntries(pos)
		b.members[m].step(pi, pv, 1)
		ni, nv := sortedEntries(neg)
		b.members[m].step(ni, nv, -1)
	}
}

// Score mirrors BAggIE.Score (sum of logistic member scores).
func (b *ReferenceBAggIE) Score(x vector.Sparse) float64 {
	idx, val := sortedEntries(x)
	var s float64
	for _, m := range b.members {
		s += 1 / (1 + math.Exp(-m.margin(idx, val)))
	}
	return s
}
