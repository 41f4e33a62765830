package extract

import (
	"reflect"
	"strings"
	"testing"
)

// refDictionary is the gazetteer as it was before it indexed phrases by
// their first token: every position lowercases its tokens and joins up to
// maxLen of them per candidate length. It is the definition
// dictionaryRecognizer must reproduce.
type refDictionary struct {
	typ     string
	phrases map[string]bool // lowercase space-joined phrases
	maxLen  int
}

func newRefDictionary(typ string, phrases []string) *refDictionary {
	d := &refDictionary{typ: typ, phrases: make(map[string]bool, len(phrases)), maxLen: 1}
	for _, p := range phrases {
		toks := strings.Fields(strings.ToLower(p))
		if len(toks) == 0 {
			continue
		}
		if len(toks) > d.maxLen {
			d.maxLen = len(toks)
		}
		d.phrases[strings.Join(toks, " ")] = true
	}
	return d
}

func (d *refDictionary) Recognize(tokens []string) []Span {
	lower := make([]string, len(tokens))
	for i, t := range tokens {
		lower[i] = strings.ToLower(t)
	}
	var spans []Span
	for i := 0; i < len(tokens); {
		matched := 0
		for l := d.maxLen; l >= 1; l-- {
			if i+l > len(tokens) {
				continue
			}
			if d.phrases[strings.Join(lower[i:i+l], " ")] {
				spans = append(spans, Span{
					Type: d.typ, Start: i, End: i + l,
					Text: strings.Join(lower[i:i+l], " "),
				})
				matched = l
				break
			}
		}
		if matched > 0 {
			i += matched
		} else {
			i++
		}
	}
	return spans
}

// overlappingPhrases is a gazetteer whose entries nest and overlap, so
// longest-first matching and the resume point after a match both matter.
var overlappingPhrases = []string{
	"new", "new york", "New York City", "york", "city hall", "hall of fame",
	"a b", "b c", "b", "a b c d", "c d", "  spaced   out  ", "", "ÉCOLE Normale",
	"port-au-prince", "o'brien's law", "st. louis",
}

// FuzzDictionaryMatchesReference pins dictionaryRecognizer to the
// join-per-length reference, over every gazetteer the extractors use and
// one of nested, overlapping phrases. The text is tokenized as one
// sentence.
func FuzzDictionaryMatchesReference(f *testing.F) {
	for _, s := range []string{
		"An outbreak of yellow fever and Yellow Fever fever", "the New York City hall of fame",
		"a b c d e a b c b", "Port-au-Prince and o'brien's law in St. Louis", "École normale ÉCOLE NORMALE",
		"charged with tax evasion and TAX EVASION", "Los Angeles los angeles Mexico City", "", "b",
	} {
		f.Add(s)
	}
	type pair struct {
		d   *dictionaryRecognizer
		ref *refDictionary
	}
	var gazetteers []pair
	for _, g := range [][]string{diseasePhrases(), careerPhrases(), chargePhrases(), locationPhrases(), overlappingPhrases} {
		gazetteers = append(gazetteers, pair{newDictionaryRecognizer("T", g), newRefDictionary("T", g)})
	}
	f.Fuzz(func(t *testing.T, text string) {
		s := sentenceOf(text)
		for g, p := range gazetteers {
			prefix := Span{Text: "prefix"}
			got := p.d.Recognize([]Span{prefix}, s)
			want := append([]Span{prefix}, p.ref.Recognize(s.Cased)...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("gazetteer %d over %q: %v, want %v", g, s.Cased, got, want)
			}
		}
	})
}
