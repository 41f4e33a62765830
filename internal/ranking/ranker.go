package ranking

import (
	"math/rand"

	"adaptiverank/internal/vector"
)

// Ranker is an online document usefulness model: it learns from labelled
// documents one at a time (the online learning of Section 3.1) and scores
// unprocessed documents; higher scores mean higher predicted usefulness.
type Ranker interface {
	// Name identifies the strategy ("RSVM-IE", "BAgg-IE", ...).
	Name() string
	// Learn performs one online update with a labelled document's
	// feature vector.
	Learn(x vector.Sparse, useful bool)
	// Score predicts the usefulness of an unprocessed document.
	Score(x vector.Sparse) float64
	// Model exposes the linear weight vector that defines the ranking
	// (the concatenation/sum for committee models); update-detection
	// techniques compare these. It may be nil for non-linear rankers.
	Model() *vector.Weights
	// Clone deep-copies the ranker (Mod-C trains a shadow copy).
	Clone() Ranker
	// Settle pays the model's pending regularization (see
	// learn.OnlineSVM.Settle). Learn leaves the model unsettled; its
	// owner settles once per training pass, not per Learn call.
	Settle()
}

// reservoir keeps a bounded uniform sample of feature vectors via
// reservoir sampling; RSVM-IE draws pairing partners from it.
type reservoir struct {
	cap  int
	seen int
	data []vector.Sparse
	rng  *rand.Rand
}

func newReservoir(capacity int, seed int64) *reservoir {
	return &reservoir{cap: capacity, rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(x vector.Sparse) {
	r.seen++
	if len(r.data) < r.cap {
		r.data = append(r.data, x)
		return
	}
	if k := r.rng.Intn(r.seen); k < r.cap {
		r.data[k] = x
	}
}

func (r *reservoir) sample() (vector.Sparse, bool) {
	if len(r.data) == 0 {
		return vector.Sparse{}, false
	}
	return r.data[r.rng.Intn(len(r.data))], true
}

func (r *reservoir) len() int { return len(r.data) }

func (r *reservoir) clone() *reservoir {
	c := &reservoir{cap: r.cap, seen: r.seen, rng: rand.New(rand.NewSource(r.rng.Int63()))}
	c.data = append([]vector.Sparse(nil), r.data...)
	return c
}
