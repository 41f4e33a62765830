package extract

import (
	"reflect"
	"testing"

	"adaptiverank/internal/relation"
	"adaptiverank/internal/textgen"
	"adaptiverank/internal/tokenize"
)

// sentenceOf tokenizes text as one sentence.
func sentenceOf(text string) *Sentence {
	var d tokenize.Doc
	d.Split(text)
	s := &Sentence{}
	for k := 0; k < d.Len(); k++ {
		cased, lower := d.Sentence(k)
		s.Cased = append(s.Cased, cased...)
		s.Lower = append(s.Lower, lower...)
	}
	return s
}

func spansOf(r Recognizer, sentence string) []Span {
	return r.Recognize(nil, sentenceOf(sentence))
}

func TestDictionaryRecognizerLongestMatch(t *testing.T) {
	d := newDictionaryRecognizer("Disease", []string{"fever", "yellow fever"})
	spans := spansOf(d, "an outbreak of yellow fever was reported")
	if len(spans) != 1 || spans[0].Text != "yellow fever" {
		t.Errorf("spans = %v, want single longest match 'yellow fever'", spans)
	}
}

func TestDictionaryRecognizerCaseInsensitive(t *testing.T) {
	d := newDictionaryRecognizer("Charge", []string{"fraud"})
	if got := spansOf(d, "the Fraud inquiry"); len(got) != 1 {
		t.Errorf("case-insensitive match failed: %v", got)
	}
}

func TestOrgRecognizer(t *testing.T) {
	o := newOrgRecognizer()
	spans := spansOf(o, "He joined Meridian Global Corp as manager")
	if len(spans) != 1 {
		t.Fatalf("spans = %v, want one", spans)
	}
	if spans[0].Text != "Meridian Global Corp" {
		t.Errorf("org = %q, want full capitalized run", spans[0].Text)
	}
	// A bare suffix word is not an organization.
	if got := spansOf(o, "The University is large"); len(got) != 0 {
		t.Errorf("bare suffix matched: %v", got)
	}
	// Lowercase suffix is not an organization.
	if got := spansOf(o, "he visited the corp office"); len(got) != 0 {
		t.Errorf("lowercase suffix matched: %v", got)
	}
}

func TestTemporalRecognizer(t *testing.T) {
	r := newTemporalRecognizer()
	cases := map[string]string{
		"cases were reported in March":     "in March",
		"cases were reported last Tuesday": "last Tuesday",
		"cases surged in early September":  "in early September",
	}
	for sentence, want := range cases {
		spans := spansOf(r, sentence)
		if len(spans) == 0 || spans[0].Text != want {
			t.Errorf("%q -> %v, want %q", sentence, spans, want)
		}
	}
	if got := spansOf(r, "he went in quickly last time"); len(got) != 0 {
		t.Errorf("non-temporal matched: %v", got)
	}
}

func TestElectionRecognizer(t *testing.T) {
	r := newElectionRecognizer()
	spans := spansOf(r, "She won the presidential election by a mile")
	if len(spans) != 1 || spans[0].Text != "presidential election" {
		t.Errorf("spans = %v, want 'presidential election'", spans)
	}
	// "the election" alone has no modifier.
	if got := spansOf(r, "after the election ended"); len(got) != 0 {
		t.Errorf("bare 'the election' matched: %v", got)
	}
}

func TestPersonHMMRecognizesPoolNames(t *testing.T) {
	p := personHMM()
	spans := spansOf(p, "Officials said that James Wilson attended the gathering")
	if len(spans) != 1 {
		t.Fatalf("spans = %v, want one person", spans)
	}
	if spans[0].Text != "James Wilson" {
		t.Errorf("person = %q, want James Wilson", spans[0].Text)
	}
}

func TestPersonHMMDoesNotTagLocations(t *testing.T) {
	p := personHMM()
	for _, s := range []string{
		"The panel met in Los Angeles on Monday",
		"Meridian Corp sponsored the event downtown",
	} {
		if got := spansOf(p, s); len(got) != 0 {
			t.Errorf("%q tagged persons: %v", s, got)
		}
	}
}

func TestDisasterTaggerMultiToken(t *testing.T) {
	nd := disasterTagger(relation.ND)
	spans := spansOf(nd, "A flash flood struck Topeka on Monday")
	if len(spans) != 1 || spans[0].Text != "flash flood" {
		t.Errorf("spans = %v, want multi-token 'flash flood'", spans)
	}
}

func TestDisasterTaggersShareNothing(t *testing.T) {
	if disasterTagger(relation.ND) == disasterTagger(relation.MD) {
		t.Error("ND and MD taggers must be distinct models")
	}
	if disasterTagger(relation.ND) != disasterTagger(relation.ND) {
		t.Error("tagger must be cached per relation")
	}
}

func TestPairContextRoles(t *testing.T) {
	tokens := sentenceOf("Voters chose Mary Johnson as the winner of the senate race").Lower
	election := Span{Start: 9, End: 11, Text: "senate race"}
	person := Span{Start: 2, End: 4, Text: "Mary Johnson"}
	// arg1 = election, arg2 = person (tuple roles), person comes first
	// in the text.
	got := pairContext(tokens, election, person)
	want := []string{"voters", "chose", "<arg2>", "as", "the", "winner", "of", "the", "<arg1>"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pairContext = %v, want %v", got, want)
	}
}

func TestGateWordsCoverConstructionTables(t *testing.T) {
	for _, cs := range [][]textgen.Construction{
		textgen.PHConstructions, textgen.EWConstructions, textgen.PCConstructions,
	} {
		gates := textgen.GateWords(cs)
		if len(gates) != len(uniqueGates(cs)) {
			t.Errorf("gate list %v not deduplicated", gates)
		}
	}
}

func uniqueGates(cs []textgen.Construction) map[string]bool {
	m := map[string]bool{}
	for _, c := range cs {
		m[c.Gate] = true
	}
	return m
}
