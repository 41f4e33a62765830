package adaptiverank_test

import (
	"strings"
	"testing"
	"time"

	"adaptiverank"
)

func TestRunDefaultsEndToEnd(t *testing.T) {
	coll, err := adaptiverank.GenerateCorpus(42, 1500)
	if err != nil {
		t.Fatal(err)
	}
	ex := adaptiverank.BuiltinExtractor(adaptiverank.PersonCharge)
	res, err := adaptiverank.Run(coll, ex, adaptiverank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DocsProcessed != coll.Len() {
		t.Errorf("DocsProcessed = %d, want %d", res.DocsProcessed, coll.Len())
	}
	if res.UsefulFound == 0 {
		t.Error("no useful documents found in a planted corpus")
	}
	if len(res.Tuples) == 0 {
		t.Error("no tuples extracted")
	}
	for _, tu := range res.Tuples {
		if tu.Rel != adaptiverank.PersonCharge {
			t.Fatalf("tuple %v has wrong relation", tu)
		}
	}
}

func TestRunFindsUsefulDocsEarly(t *testing.T) {
	coll, err := adaptiverank.GenerateCorpus(7, 2500)
	if err != nil {
		t.Fatal(err)
	}
	ex := adaptiverank.BuiltinExtractor(adaptiverank.ManMadeDisasterLocation)
	res, err := adaptiverank.Run(coll, ex, adaptiverank.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Count useful docs in the first vs the last half of the ranked order.
	half := len(res.Order) / 2
	early, late := 0, 0
	for i, id := range res.Order {
		if len(ex.Extract(coll.Doc(id))) > 0 {
			if i < half {
				early++
			} else {
				late++
			}
		}
	}
	if early <= late {
		t.Errorf("useful docs early=%d late=%d; adaptive ranking failed to front-load", early, late)
	}
}

func TestRunStrategiesAndDetectors(t *testing.T) {
	coll, _ := adaptiverank.GenerateCorpus(3, 800)
	ex := adaptiverank.BuiltinExtractor(adaptiverank.PersonCareer)
	for _, opts := range []adaptiverank.Options{
		{Strategy: adaptiverank.RSVMIE, Detector: adaptiverank.TopK},
		{Strategy: adaptiverank.RSVMIE, Detector: adaptiverank.WindF},
		{Strategy: adaptiverank.RSVMIE, Detector: adaptiverank.FeatS},
		{Strategy: adaptiverank.RSVMIE, Detector: adaptiverank.NoDetector},
		{Strategy: adaptiverank.BAggIE, Detector: adaptiverank.ModC},
		{Strategy: adaptiverank.RandomOrder},
	} {
		if _, err := adaptiverank.Run(coll, ex, opts); err != nil {
			t.Errorf("Run(%+v) failed: %v", opts, err)
		}
	}
}

func TestRunValidation(t *testing.T) {
	coll, _ := adaptiverank.GenerateCorpus(1, 100)
	ex := adaptiverank.BuiltinExtractor(adaptiverank.ElectionWinner)
	if _, err := adaptiverank.Run(nil, ex, adaptiverank.Options{}); err == nil {
		t.Error("nil collection must fail")
	}
	if _, err := adaptiverank.Run(coll, nil, adaptiverank.Options{}); err == nil {
		t.Error("nil extractor must fail")
	}
	if _, err := adaptiverank.Run(coll, ex, adaptiverank.Options{Strategy: 99}); err == nil {
		t.Error("unknown strategy must fail")
	}
	if _, err := adaptiverank.Run(coll, ex, adaptiverank.Options{Detector: 99}); err == nil {
		t.Error("unknown detector must fail")
	}
	if _, err := adaptiverank.Run(coll, ex, adaptiverank.Options{SampleSize: -5}); err == nil {
		t.Error("negative sample size must fail")
	}
	if _, err := adaptiverank.GenerateCorpus(1, 0); err == nil {
		t.Error("zero-size corpus must fail")
	}
}

func TestCustomExtractor(t *testing.T) {
	coll, _ := adaptiverank.GenerateCorpus(9, 600)
	calls := 0
	ex := adaptiverank.NewExtractor(adaptiverank.PersonOrganization, 2*time.Millisecond,
		func(d *adaptiverank.Document) []adaptiverank.Tuple {
			calls++
			if strings.Contains(d.Text, "sponsored") {
				return []adaptiverank.Tuple{{Rel: adaptiverank.PersonOrganization, Arg1: "org", Arg2: "event"}}
			}
			return nil
		})
	if ex.SimulatedCost() != 2*time.Millisecond {
		t.Error("custom cost not preserved")
	}
	res, err := adaptiverank.Run(coll, ex, adaptiverank.Options{MaxDocs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Error("custom extractor never called")
	}
	if res.DocsProcessed == 0 {
		t.Error("nothing processed")
	}
}

func TestMaxDocsLimitsWork(t *testing.T) {
	coll, _ := adaptiverank.GenerateCorpus(11, 1000)
	ex := adaptiverank.BuiltinExtractor(adaptiverank.PersonCareer)
	res, err := adaptiverank.Run(coll, ex, adaptiverank.Options{MaxDocs: 50, SampleSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) != 50 {
		t.Errorf("ranked-phase docs = %d, want 50", len(res.Order))
	}
	if res.DocsProcessed != 110 {
		t.Errorf("DocsProcessed = %d, want 110 (sample + ranked)", res.DocsProcessed)
	}
}

func TestCorpusJSONLRoundTripThroughFacade(t *testing.T) {
	coll, _ := adaptiverank.GenerateCorpus(21, 40)
	path := t.TempDir() + "/c.jsonl"
	if err := adaptiverank.SaveCorpusJSONL(path, coll); err != nil {
		t.Fatal(err)
	}
	back, err := adaptiverank.LoadCorpusJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != coll.Len() {
		t.Fatalf("round trip: %d != %d", back.Len(), coll.Len())
	}
	// A loaded corpus must be directly usable by Run.
	ex := adaptiverank.BuiltinExtractor(adaptiverank.PersonCareer)
	if _, err := adaptiverank.Run(back, ex, adaptiverank.Options{SampleSize: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelWorkersProduceSameTuples(t *testing.T) {
	coll, _ := adaptiverank.GenerateCorpus(31, 900)
	ex := adaptiverank.BuiltinExtractor(adaptiverank.PersonCharge)
	seq, err := adaptiverank.Run(coll, ex, adaptiverank.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := adaptiverank.Run(coll, ex, adaptiverank.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Tuples) != len(par.Tuples) {
		t.Fatalf("tuple counts differ: %d vs %d", len(seq.Tuples), len(par.Tuples))
	}
	for i := range seq.Order {
		if seq.Order[i] != par.Order[i] {
			t.Fatalf("order diverged at %d", i)
		}
	}
}
