package pipeline

import (
	"testing"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/extract"
	"adaptiverank/internal/index"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/sampling"
	"adaptiverank/internal/textgen"
	"adaptiverank/internal/update"
)

// testEnv builds a small corpus with a boosted PH density so every run has
// signal, plus labels and a sample.
type testEnv struct {
	coll   *corpus.Collection
	labels *Labels
	sample []*corpus.Document
}

func newTestEnv(t *testing.T, seed int64) *testEnv {
	t.Helper()
	cfg := textgen.DefaultConfig(seed, 1200)
	cfg.DensityOverride = map[relation.Relation]float64{relation.PH: 0.05}
	coll, _ := textgen.Generate(cfg)
	labels := ComputeLabels(extract.Get(relation.PH), coll)
	if labels.NumUseful() < 10 {
		t.Fatalf("test corpus too sparse: %d useful", labels.NumUseful())
	}
	return &testEnv{coll: coll, labels: labels, sample: sampling.SRS(coll, 150, seed)}
}

func (e *testEnv) run(t *testing.T, strat Strategy, det update.Detector, feat *ranking.Featurizer) *Result {
	t.Helper()
	res, err := Run(Options{
		Rel: relation.PH, Coll: e.coll, Labels: e.labels, Sample: e.sample,
		Strategy: strat, Detector: det, Featurizer: feat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunResultInvariants(t *testing.T) {
	env := newTestEnv(t, 1)
	feat := ranking.NewFeaturizer()
	r := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 1})
	res := env.run(t, NewLearned(r, feat), update.NewModC(r, 0.1, 5, 2), feat)

	if len(res.Order) != len(res.OrderLabels) {
		t.Fatal("Order and OrderLabels must be parallel")
	}
	if res.SampleSize+len(res.Order) != env.coll.Len() {
		t.Errorf("sample (%d) + ranked (%d) != collection (%d)",
			res.SampleSize, len(res.Order), env.coll.Len())
	}
	seen := map[corpus.DocID]bool{}
	for _, d := range env.sample {
		seen[d.ID] = true
	}
	for i, id := range res.Order {
		if seen[id] {
			t.Fatalf("document %d processed twice (position %d)", id, i)
		}
		seen[id] = true
		if res.OrderLabels[i] != env.labels.Useful(id) {
			t.Fatalf("label mismatch at position %d", i)
		}
	}
	if res.AUC < 0 || res.AUC > 1 || res.AP < 0 || res.AP > 1 {
		t.Errorf("metrics out of range: AP=%g AUC=%g", res.AP, res.AUC)
	}
	if res.Curve[100] < 0.999 {
		t.Errorf("final recall = %g, want 1 (everything processed)", res.Curve[100])
	}
	if res.Time.Extraction <= 0 {
		t.Error("extraction time must accumulate")
	}
}

func TestPerfectBeatsRandom(t *testing.T) {
	env := newTestEnv(t, 2)
	feat := ranking.NewFeaturizer()
	perfect := env.run(t, &Perfect{L: env.labels}, nil, feat)
	random := env.run(t, NewLearned(ranking.NewRandomRanker(3), feat), nil, feat)
	if perfect.AUC < 0.999 {
		t.Errorf("perfect AUC = %g, want 1", perfect.AUC)
	}
	if perfect.AP < 0.999 {
		t.Errorf("perfect AP = %g, want 1", perfect.AP)
	}
	if random.AUC > 0.75 {
		t.Errorf("random AUC = %g, suspiciously high", random.AUC)
	}
}

func TestLearnedBeatsRandom(t *testing.T) {
	env := newTestEnv(t, 4)
	featA := ranking.NewFeaturizer()
	learned := env.run(t, NewLearned(ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 4}), featA), nil, featA)
	featB := ranking.NewFeaturizer()
	random := env.run(t, NewLearned(ranking.NewRandomRanker(4), featB), nil, featB)
	if learned.AUC <= random.AUC {
		t.Errorf("RSVM-IE AUC %.3f <= random AUC %.3f", learned.AUC, random.AUC)
	}
}

func TestAdaptiveTriggersUpdates(t *testing.T) {
	env := newTestEnv(t, 5)
	feat := ranking.NewFeaturizer()
	r := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 5})
	res := env.run(t, NewLearned(r, feat), update.NewWindF(100), feat)
	if len(res.UpdatePositions) == 0 {
		t.Fatal("Wind-F produced no updates")
	}
	want := (env.coll.Len() - 150) / 100
	if got := len(res.UpdatePositions); got < want-1 || got > want+1 {
		t.Errorf("updates = %d, want ~%d", got, want)
	}
	if res.DetectorObservations != len(res.Order) {
		t.Errorf("detector observations = %d, want %d", res.DetectorObservations, len(res.Order))
	}
	if len(res.Churn) != len(res.UpdatePositions) {
		t.Errorf("churn records = %d, want one per update", len(res.Churn))
	}
}

func TestDeterministicRuns(t *testing.T) {
	env := newTestEnv(t, 6)
	mk := func() *Result {
		feat := ranking.NewFeaturizer()
		r := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 6})
		return env.run(t, NewLearned(r, feat), update.NewModC(r, 0.1, 5, 7), feat)
	}
	a, b := mk(), mk()
	if len(a.Order) != len(b.Order) {
		t.Fatal("orders differ in length")
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("processing order diverged at %d", i)
		}
	}
}

// maxDocsOpts stops a learned run over env after 100 ranked documents.
func maxDocsOpts(env *testEnv) Options {
	feat := ranking.NewFeaturizer()
	return Options{
		Rel: relation.PH, Coll: env.coll, Labels: env.labels, Sample: env.sample,
		Strategy:   NewLearned(ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 7}), feat),
		Featurizer: feat, MaxDocs: 100,
	}
}

func TestMaxDocsStopsEarly(t *testing.T) {
	res, err := Run(maxDocsOpts(newTestEnv(t, 7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 100 {
		t.Errorf("processed %d ranked docs, want 100", len(res.Order))
	}
}

// searchIfaceOpts runs RSVM-IE and Wind-F over env in the
// search-interface scenario. Every update grows the pool, and the
// feature queries retrieve documents already pending as well as new ones.
func searchIfaceOpts(env *testEnv) Options {
	idx := index.Build(env.coll)
	feat := ranking.NewFeaturizer()
	r := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 8})
	return Options{
		Rel: relation.PH, Coll: env.coll, Labels: env.labels,
		Sample:   sampling.CQS(idx, []string{"charged", "fraud"}, 100, 10),
		Strategy: NewLearned(r, feat), Detector: update.NewWindF(20),
		Featurizer: feat,
		SearchIface: &SearchIfaceOptions{
			Index:          idx,
			InitialQueries: []string{"charged", "fraud", "indicted"},
		},
	}
}

func TestSearchInterfacePoolGrowth(t *testing.T) {
	env := newTestEnv(t, 8)
	rec := &obs.MemRecorder{}
	opts := searchIfaceOpts(env)
	opts.Recorder = rec
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if first := kindEvents(rec, obs.KindRankStarted)[0].N; res.PoolSize <= first {
		t.Errorf("pool of %d never grew past the initial retrieval's %d", res.PoolSize, first)
	}
	if len(res.Order) >= env.coll.Len() {
		t.Error("search-interface pool must not cover the whole collection")
	}
	if len(res.Order) == 0 {
		t.Fatal("empty pool")
	}
	// The pool must contain a useful-doc fraction above the base rate
	// (queries target useful docs).
	useful := 0
	for _, u := range res.OrderLabels {
		if u {
			useful++
		}
	}
	baseRate := float64(env.labels.NumUseful()) / float64(env.coll.Len())
	if rate := float64(useful+res.SampleUseful) / float64(len(res.Order)+res.SampleSize); rate <= baseRate {
		t.Errorf("pool useful rate %.3f <= base rate %.3f", rate, baseRate)
	}
}

func TestRunValidatesOptions(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("Run with empty options must fail")
	}
}

func TestLabelsRestrict(t *testing.T) {
	env := newTestEnv(t, 9)
	r := env.labels.Restrict(300)
	if r.Len() != 300 {
		t.Errorf("restricted Len = %d, want 300", r.Len())
	}
	count := 0
	for i := 0; i < 300; i++ {
		if env.labels.Useful(corpus.DocID(i)) {
			count++
		}
	}
	if r.NumUseful() != count {
		t.Errorf("restricted NumUseful = %d, want %d", r.NumUseful(), count)
	}
	if env.labels.Restrict(1<<20) != env.labels {
		t.Error("oversized Restrict must return the original labels")
	}
}

func TestLabelsForCaches(t *testing.T) {
	coll, _ := textgen.Generate(textgen.DefaultConfig(10, 100))
	a := LabelsFor(relation.EW, coll)
	b := LabelsFor(relation.EW, coll)
	if a != b {
		t.Error("LabelsFor must cache per (relation, collection)")
	}
}

func TestFCStrategyRerankBatching(t *testing.T) {
	s := &FCStrategy{RerankEvery: 3}
	// Without a backing FC this only exercises the batching logic via a
	// nil-safe path, so construct with the real helper instead.
	_ = s
	if NewFCStrategy(nil, 0).RerankEvery != 1 {
		t.Error("RerankEvery must default to 1")
	}
}

func TestParallelRankingMatchesSequential(t *testing.T) {
	env := newTestEnv(t, 12)
	mk := func(workers int) *Result {
		feat := ranking.NewFeaturizer()
		r := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 12})
		res, err := Run(Options{
			Rel: relation.PH, Coll: env.coll, Labels: env.labels, Sample: env.sample,
			Strategy: NewLearned(r, feat), Detector: update.NewWindF(200),
			Featurizer: feat, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := mk(1)
	par := mk(8)
	if len(seq.Order) != len(par.Order) {
		t.Fatal("order lengths differ")
	}
	for i := range seq.Order {
		if seq.Order[i] != par.Order[i] {
			t.Fatalf("parallel ranking diverged from sequential at position %d", i)
		}
	}
}
