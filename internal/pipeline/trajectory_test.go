package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sync"
	"testing"

	"adaptiverank/internal/extract"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/sampling"
	"adaptiverank/internal/textgen"
	"adaptiverank/internal/update"
)

// trajectoryProbe wraps a learned strategy and hashes its model after
// every update. Into weights go the ranked-phase position, NNZ, and the
// Float64bits of every nonzero (index, weight) in Range order; into
// decisions go the position and NNZ only. Embedding keeps every optional
// interface (BatchScorer, Modeler, DocAttributor) the pipeline looks for,
// so the run takes the production path.
type trajectoryProbe struct {
	*Learned
	weights, decisions hash.Hash
	pos                int
	updates            int
}

func (p *trajectoryProbe) Observe(ld LabeledDoc) bool {
	p.pos++
	return p.Learned.Observe(ld)
}

func (p *trajectoryProbe) Update(buffered []LabeledDoc) {
	p.Learned.Update(buffered)
	p.updates++
	w := p.Model()
	putUint64(p.weights, uint64(p.pos))
	putUint64(p.weights, uint64(w.NNZ()))
	putUint64(p.decisions, uint64(p.pos))
	putUint64(p.decisions, uint64(w.NNZ()))
	w.Range(func(i int32, v float64) {
		putUint64(p.weights, uint64(i))
		putUint64(p.weights, math.Float64bits(v))
	})
}

func putUint64(h hash.Hash, u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	h.Write(b[:])
}

// trajectory is one configuration's run: its update count and the two
// digests, each closed with the final order.
type trajectory struct {
	updates            int
	weights, decisions string
}

// trajectoryNames are the three learner/detector pairs both digest tests
// pin.
var trajectoryNames = []string{"rsvm-windf", "bagg-topk", "rsvm-modc"}

// runTrajectories runs the trajectories on one worker, once per test
// binary.
var runTrajectories = sync.OnceValues(func() (map[string]trajectory, error) { return trajectories(1) })

// trajectories runs (RSVM-IE, Wind-F), (BAgg-IE, Top-K) and (RSVM-IE,
// Mod-C) with the given number of score workers over a fixed
// 2,400-document corpus.
func trajectories(workers int) (map[string]trajectory, error) {
	cfg := textgen.DefaultConfig(18, 2400)
	cfg.DensityOverride = map[relation.Relation]float64{relation.PH: 0.05}
	coll, _ := textgen.Generate(cfg)
	labels := ComputeLabels(extract.Get(relation.PH), coll)
	sample := sampling.SRS(coll, 240, 18)

	out := make(map[string]trajectory, len(trajectoryNames))
	for _, name := range trajectoryNames {
		var r ranking.Ranker
		var det update.Detector
		switch name {
		case "rsvm-windf":
			r = ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 18})
			det = update.NewWindF(coll.Len() / 50)
		case "bagg-topk":
			r = ranking.NewBAggIE(ranking.BAggOptions{})
			det = update.NewTopK(update.TopKOptions{})
		case "rsvm-modc":
			r = ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 18})
			det = update.NewModC(r, 0.1, 5, 118)
		}
		feat := ranking.NewFeaturizer()
		probe := &trajectoryProbe{Learned: NewLearned(r, feat), weights: sha256.New(), decisions: sha256.New()}
		res, err := Run(Options{
			Rel: relation.PH, Coll: coll, Labels: labels, Sample: sample,
			Strategy: probe, Detector: det, Featurizer: feat, Workers: workers,
		})
		if err != nil {
			return nil, err
		}
		if probe.updates != len(res.UpdatePositions) {
			return nil, fmt.Errorf("%s: probe saw %d updates, result reports %d",
				name, probe.updates, len(res.UpdatePositions))
		}
		for _, id := range res.Order {
			putUint64(probe.weights, uint64(id))
			putUint64(probe.decisions, uint64(id))
		}
		out[name] = trajectory{
			updates:   probe.updates,
			weights:   hex.EncodeToString(probe.weights.Sum(nil)),
			decisions: hex.EncodeToString(probe.decisions.Sum(nil)),
		}
	}
	return out, nil
}

// checkTrajectories compares one digest of every configuration with its
// committed constant.
func checkTrajectories(t *testing.T, want []trajectoryDigest, digest func(trajectory) string) {
	got, err := runTrajectories()
	if err != nil {
		t.Fatal(err)
	}
	compareTrajectories(t, got, want, digest)
}

// compareTrajectories compares one digest of every configuration in got
// with its committed constant.
func compareTrajectories(t *testing.T, got map[string]trajectory, want []trajectoryDigest, digest func(trajectory) string) {
	for _, tc := range want {
		t.Run(tc.name, func(t *testing.T) {
			g := got[tc.name]
			t.Logf("%s: %d updates, digest %s", tc.name, g.updates, digest(g))
			if digest(g) != tc.digest || g.updates != tc.updates {
				t.Errorf("digest = %s over %d updates, want %s over %d",
					digest(g), g.updates, tc.digest, tc.updates)
			}
		})
	}
}

type trajectoryDigest struct {
	name    string
	digest  string
	updates int
}

// The model trajectories below were computed with the lazy elastic-net
// step (each weight pays its L1 penalty when touched; the model settles
// at the end of Init and Update and at the detectors' own reads) and
// RSVM-IE's pair step folding its two rows one after the other. They
// pin the weights and the rank order bit for bit: a change meant to keep
// results must pass with them unedited.
//
// trajectoryArithmetic is the ModelArithmetic they were computed under.
// Journaled snapshots hash the same weight bits, so a change that
// replaces these constants bumps ModelArithmetic and this constant in the
// same edit, and journals from before it are refused by name.
const trajectoryArithmetic = 2

var trajectoryDigests = []trajectoryDigest{
	{"rsvm-windf", "2c4e9fbe551e560f4ebbeb0e1e3e3df4c0927e359060907024e2a832ac5816b8", 45},
	{"bagg-topk", "9783ed082839b1c8a0c40e24406c1b86ca9f32eb542649676020c56cb26063c2", 3},
	{"rsvm-modc", "458a47ca9ef8e11f7d9dd7fed7392260255464d0e695c52a048923a29df9c8b2", 4},
}

// TestModelTrajectoryDigest compares a SHA-256 of every model update's
// weights and of the final order with the committed constants.
func TestModelTrajectoryDigest(t *testing.T) {
	if ModelArithmetic != trajectoryArithmetic {
		t.Fatalf("ModelArithmetic = %d, but the trajectory digests are pinned at version %d", ModelArithmetic, trajectoryArithmetic)
	}
	checkTrajectories(t, trajectoryDigests, func(g trajectory) string { return g.weights })
}

// TestModelTrajectoryDigestWorkers4 holds four score workers to the same
// constants: feature ids, and so every weight's fold order, must not
// depend on how the workers are scheduled.
func TestModelTrajectoryDigestWorkers4(t *testing.T) {
	got, err := trajectories(4)
	if err != nil {
		t.Fatal(err)
	}
	compareTrajectories(t, got, trajectoryDigests, func(g trajectory) string { return g.weights })
}

// The decision trajectories below were computed with the eager
// elastic-net step. They hash where each update happened, the model's
// support size after it, and the final order — no weight bits — so a
// change that moves only floating-point rounding must pass them
// unedited.
var decisionDigests = []trajectoryDigest{
	{"rsvm-windf", "2450454d94b620fe1cc97ce799ab258872e78ba19ad6154266fd81da32656102", 45},
	{"bagg-topk", "bf424b66955649bf953afb61f70eef73ecf72149fac1a1a8b292db54d564d399", 3},
	{"rsvm-modc", "8ba7189b6883c26a18b887b8479b437c3f287f0f80c6b14d829dccc5752ad9d3", 4},
}

// TestModelDecisionDigest compares a SHA-256 of every update's position
// and support size and of the final order with the committed constants.
func TestModelDecisionDigest(t *testing.T) {
	checkTrajectories(t, decisionDigests, func(g trajectory) string { return g.decisions })
}
