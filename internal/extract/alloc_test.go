package extract

import (
	"strings"
	"testing"

	"adaptiverank/internal/relation"
	"adaptiverank/internal/textgen"
)

// TestExtractAllocBudgets bounds a warm Extract of a document that yields
// no tuple. The only allocation is the string holding the document's
// lowercased tokens.
func TestExtractAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool items at random, so the pooled scratch is reallocated")
	}
	// No gazetteer or pattern matches here, as in most documents, so no
	// tagger runs either.
	plain := "Officials said James Wilson and Mary Johnson met on the U.S. coast. " +
		"The 2 reports were short! Did Karen Davis agree? She left at 9.\n" +
		"ÉCOLE staff and Ωmega analysts spoke, and O'Brien's plan-B ended."
	cases := []struct {
		rel  relation.Relation
		text string
	}{
		{relation.PH, strings.Repeat("The fraud inquiry was closed. ", 20)}, // the HMM runs on every sentence
		{relation.PC, "The senator spoke about the plans. The judge left."},
		{relation.PH, "Fraud" + strings.Repeat(" the", 4999)}, // the HMM over one 5,000-token sentence
	}
	for _, r := range relation.All() {
		cases = append(cases, struct {
			rel  relation.Relation
			text string
		}{r, plain})
	}
	for _, c := range cases {
		e, d := Get(c.rel), doc(c.text)
		if got := e.Extract(d); len(got) != 0 {
			t.Fatalf("%s over %.40q: %v, want no tuple", c.rel.Code(), c.text, got)
		}
		if allocs := testing.AllocsPerRun(50, func() { e.Extract(d) }); allocs > 1 {
			t.Errorf("%s over %.40q: %.1f allocs per warm Extract, want <= 1", c.rel.Code(), c.text, allocs)
		}
	}
}

// TestPOClassifierReadOnlyAtInference checks that labelling a corpus
// leaves the PO classifier's feature space as training left it.
func TestPOClassifierReadOnlyAtInference(t *testing.T) {
	cls := newPOSVM()
	before := cls.FeatureCount()
	coll, _ := textgen.Generate(textgen.DefaultConfig(5, 600))
	e := Get(relation.PO)
	tuples := 0
	for _, d := range coll.Docs() {
		tuples += len(e.Extract(d))
	}
	if tuples == 0 {
		t.Fatal("no PO tuples: the classifier never ran")
	}
	if after := cls.FeatureCount(); after != before {
		t.Errorf("FeatureCount = %d after extracting a corpus, want %d as trained", after, before)
	}
}
