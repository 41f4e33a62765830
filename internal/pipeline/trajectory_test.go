package pipeline

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"adaptiverank/internal/extract"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/sampling"
	"adaptiverank/internal/textgen"
	"adaptiverank/internal/update"
)

// trajectoryProbe wraps a learned strategy and hashes its model after
// every update: the ranked-phase position, NNZ, and the Float64bits of
// every nonzero (index, weight) in Range order. Embedding keeps every
// optional interface (BatchScorer, Modeler, DocAttributor) the pipeline
// looks for, so the run takes the production path.
type trajectoryProbe struct {
	*Learned
	h       hash.Hash
	pos     int
	updates int
}

func (p *trajectoryProbe) Observe(ld LabeledDoc) bool {
	p.pos++
	return p.Learned.Observe(ld)
}

func (p *trajectoryProbe) Update(buffered []LabeledDoc) {
	p.Learned.Update(buffered)
	p.updates++
	w := p.Model()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		p.h.Write(b[:])
	}
	put(uint64(p.pos))
	put(uint64(w.NNZ()))
	w.Range(func(i int32, v float64) {
		put(uint64(i))
		put(math.Float64bits(v))
	})
}

// The model trajectories below were computed before the weight vector
// kept a support list and before the rank pass stopped sorting through a
// score map. They pin the eager elastic-net step and the rank order bit
// for bit: a change meant to keep results must pass with them unedited.
var trajectoryDigests = []struct {
	name    string
	digest  string
	updates int
}{
	{"rsvm-windf", "0f0a113fd17bf94f29413f484fe2773a789cfa5faaeb60b26e4b73f2276a50d9", 45},
	{"bagg-topk", "3ef77d043e696750130be426bd04416e03a76168ceb97071a8004d5d96f4ff98", 3},
	{"rsvm-modc", "cfd57aa5a2acb106a1fb884e9915311b0763504114e98de0c6c546b260328e11", 4},
}

// TestModelTrajectoryDigest runs (RSVM-IE, Wind-F), (BAgg-IE, Top-K) and
// (RSVM-IE, Mod-C) on one worker over a fixed 2,400-document corpus and
// compares a SHA-256 of every model update and of the final order with
// the committed constants.
func TestModelTrajectoryDigest(t *testing.T) {
	cfg := textgen.DefaultConfig(18, 2400)
	cfg.DensityOverride = map[relation.Relation]float64{relation.PH: 0.05}
	coll, _ := textgen.Generate(cfg)
	labels := ComputeLabels(extract.Get(relation.PH), coll)
	sample := sampling.SRS(coll, 240, 18)

	for _, tc := range trajectoryDigests {
		t.Run(tc.name, func(t *testing.T) {
			var r ranking.Ranker
			var det update.Detector
			switch tc.name {
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
			probe := &trajectoryProbe{Learned: NewLearned(r, feat), h: sha256.New()}
			res, err := Run(Options{
				Rel: relation.PH, Coll: coll, Labels: labels, Sample: sample,
				Strategy: probe, Detector: det, Featurizer: feat, Workers: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if probe.updates != len(res.UpdatePositions) {
				t.Fatalf("probe saw %d updates, result reports %d", probe.updates, len(res.UpdatePositions))
			}
			var b [8]byte
			for _, id := range res.Order {
				binary.LittleEndian.PutUint64(b[:], uint64(id))
				probe.h.Write(b[:])
			}
			got := hex.EncodeToString(probe.h.Sum(nil))
			t.Logf("%s: %d updates, %d ranked, digest %s", tc.name, probe.updates, len(res.Order), got)
			if got != tc.digest || probe.updates != tc.updates {
				t.Errorf("trajectory digest = %s over %d updates, want %s over %d",
					got, probe.updates, tc.digest, tc.updates)
			}
		})
	}
}
