package extract

import (
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"adaptiverank/internal/tokenize"

	"adaptiverank/internal/learn"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/textgen"
)

// dictionaryRecognizer matches a phrase gazetteer (case-insensitive,
// longest match first) against sentence tokens. It is the "dictionaries"
// entity recognizer of Section 4.
type dictionaryRecognizer struct {
	typ string
	// byFirst maps a phrase's first token to the phrases it starts,
	// longest first.
	byFirst map[string][]phrase
}

// phrase is one gazetteer entry: its lowercase tokens and, as the span
// text, those tokens joined by spaces.
type phrase struct {
	text string
	toks []string
}

func newDictionaryRecognizer(typ string, phrases []string) *dictionaryRecognizer {
	d := &dictionaryRecognizer{typ: typ, byFirst: make(map[string][]phrase, len(phrases))}
	for _, p := range phrases {
		toks := strings.Fields(strings.ToLower(p))
		if len(toks) == 0 {
			continue
		}
		d.byFirst[toks[0]] = append(d.byFirst[toks[0]], phrase{text: strings.Join(toks, " "), toks: toks})
	}
	for _, ps := range d.byFirst {
		slices.SortStableFunc(ps, func(a, b phrase) int { return len(b.toks) - len(a.toks) })
	}
	return d
}

func (d *dictionaryRecognizer) Type() string { return d.typ }

func (d *dictionaryRecognizer) Recognize(dst []Span, s *Sentence) []Span {
	for i := 0; i < len(s.Lower); {
		matched := 1
		for _, p := range d.byFirst[s.Lower[i]] {
			if i+len(p.toks) <= len(s.Lower) && slices.Equal(p.toks[1:], s.Lower[i+1:i+len(p.toks)]) {
				dst = append(dst, Span{Type: d.typ, Start: i, End: i + len(p.toks), Text: p.text})
				matched = len(p.toks)
				break
			}
		}
		i += matched
	}
	return dst
}

// Gazetteer accessors: the extractors' dictionaries come from the same
// pools the generator draws entities from, modelling real gazetteers
// compiled from the same domain as the corpus.
func diseasePhrases() []string  { return textgen.Diseases }
func careerPhrases() []string   { return textgen.Careers }
func chargePhrases() []string   { return textgen.Charges }
func locationPhrases() []string { return textgen.Locations }

// orgRecognizer is the automatically-generated-pattern recognizer for
// organizations (Whitelaw et al. in the paper): a maximal run of
// capitalized tokens ending in a known organization suffix.
type orgRecognizer struct {
	suffixes map[string]bool
}

func newOrgRecognizer() *orgRecognizer {
	o := &orgRecognizer{suffixes: make(map[string]bool, len(textgen.OrgSuffixes))}
	for _, s := range textgen.OrgSuffixes {
		o.suffixes[strings.ToLower(s)] = true
	}
	return o
}

func (o *orgRecognizer) Type() string { return "Organization" }

func isCapitalized(tok string) bool {
	r, _ := utf8.DecodeRuneInString(tok)
	return tok != "" && unicode.IsUpper(r)
}

func (o *orgRecognizer) Recognize(dst []Span, s *Sentence) []Span {
	for i, low := range s.Lower {
		if !o.suffixes[low] || !isCapitalized(s.Cased[i]) {
			continue
		}
		start := i
		for start > 0 && isCapitalized(s.Cased[start-1]) &&
			!o.suffixes[s.Lower[start-1]] && !tokenize.IsStopword(s.Lower[start-1]) {
			start--
		}
		if start == i {
			continue // a bare suffix word is not an organization
		}
		dst = append(dst, Span{
			Type: "Organization", Start: start, End: i + 1,
			Text: strings.Join(s.Cased[start:i+1], " "),
		})
	}
	return dst
}

// temporalRecognizer is the manually-crafted-regular-expression recognizer
// for temporal expressions: "in <Month>", "in early <Month>",
// "last <Weekday>".
type temporalRecognizer struct {
	months, weekdays map[string]bool
}

func newTemporalRecognizer() *temporalRecognizer {
	t := &temporalRecognizer{months: map[string]bool{}, weekdays: map[string]bool{}}
	for _, m := range []string{"january", "february", "march", "april", "may",
		"june", "july", "august", "september", "october", "november", "december"} {
		t.months[m] = true
	}
	for _, w := range []string{"monday", "tuesday", "wednesday", "thursday",
		"friday", "saturday", "sunday"} {
		t.weekdays[w] = true
	}
	return t
}

func (t *temporalRecognizer) Type() string { return "Temporal" }

func (t *temporalRecognizer) Recognize(dst []Span, s *Sentence) []Span {
	low, cased := s.Lower, s.Cased
	for i := 0; i < len(low); i++ {
		switch low[i] {
		case "in":
			if i+1 < len(low) && t.months[low[i+1]] {
				dst = append(dst, Span{Type: "Temporal", Start: i, End: i + 2,
					Text: "in " + cased[i+1]})
			} else if i+2 < len(low) && low[i+1] == "early" && t.months[low[i+2]] {
				dst = append(dst, Span{Type: "Temporal", Start: i, End: i + 3,
					Text: "in early " + cased[i+2]})
			}
		case "last":
			if i+1 < len(low) && t.weekdays[low[i+1]] {
				dst = append(dst, Span{Type: "Temporal", Start: i, End: i + 2,
					Text: "last " + cased[i+1]})
			}
		}
	}
	return dst
}

// electionRecognizer finds election mentions: "<modifier> (election|race|vote)"
// noun phrases, per the pattern-based entity recognition style of Section 4.
type electionRecognizer struct {
	heads map[string]bool
}

func newElectionRecognizer() *electionRecognizer {
	return &electionRecognizer{heads: map[string]bool{"election": true, "race": true, "vote": true}}
}

func (e *electionRecognizer) Type() string { return "Election" }

func (e *electionRecognizer) Recognize(dst []Span, s *Sentence) []Span {
	for i := 1; i < len(s.Lower); i++ {
		if !e.heads[s.Lower[i]] {
			continue
		}
		mod := s.Lower[i-1]
		if mod == "the" || mod == "a" || mod == "an" || isCapitalized(s.Cased[i-1]) {
			continue
		}
		dst = append(dst, Span{Type: "Election", Start: i - 1, End: i + 1,
			Text: mod + " " + s.Lower[i]})
	}
	return dst
}

// taggerRecognizer adapts a BIO sequence tagger into a Recognizer. A span
// opens at any B- tag and runs over the I- tags of the same type.
type taggerRecognizer struct {
	typ string
	// tag appends the tagger's state index for each token of s to dst.
	tag func(dst []int, s *Sentence) []int
	// inside[b] is -1 unless b is a B- state. For a B- state it is the
	// I- state of the same type, or len(inside), which no token carries,
	// if the tagger has none.
	inside []int
}

// newTaggerRecognizer adapts a tagger whose state indices index tags.
func newTaggerRecognizer(typ string, tags []string, tag func(dst []int, s *Sentence) []int) *taggerRecognizer {
	t := &taggerRecognizer{typ: typ, tag: tag, inside: make([]int, len(tags))}
	for b, name := range tags {
		t.inside[b] = -1
		if kind, ok := strings.CutPrefix(name, "B-"); ok {
			if t.inside[b] = slices.Index(tags, "I-"+kind); t.inside[b] < 0 {
				t.inside[b] = len(tags)
			}
		}
	}
	return t
}

func (t *taggerRecognizer) Type() string { return t.typ }

func (t *taggerRecognizer) Recognize(dst []Span, s *Sentence) []Span {
	s.states = t.tag(s.states[:0], s)
	states := s.states
	for i := 0; i < len(states); {
		in := t.inside[states[i]]
		if in < 0 {
			i++
			continue
		}
		j := i + 1
		for j < len(states) && states[j] == in {
			j++
		}
		var text string
		if t.typ == "Person" {
			text = strings.Join(s.Cased[i:j], " ")
		} else {
			text = strings.Join(s.Lower[i:j], " ")
		}
		dst = append(dst, Span{Type: t.typ, Start: i, End: j, Text: text})
		i = j
	}
	return dst
}

var (
	personOnce sync.Once
	personRec  Recognizer

	disasterOnce [2]sync.Once
	disasterRec  [2]Recognizer
)

// personHMM returns the shared HMM-based Person recognizer, trained once on
// deterministic synthetic labelled sentences.
func personHMM() Recognizer {
	personOnce.Do(func() {
		sents, tags := personTrainingData(4000, 11)
		hmm := learn.TrainHMM(sents, tags)
		personRec = newTaggerRecognizer("Person", hmm.States(), func(dst []int, s *Sentence) []int {
			return hmm.Decode(dst, s.Cased, s.Lower)
		})
	})
	return personRec
}

// disasterTagger returns the shared perceptron-based disaster mention
// recognizer for ND or MD (the MEMM/CRF stand-ins of Section 4).
func disasterTagger(rel relation.Relation) Recognizer {
	idx := 0
	typ := "NaturalDisaster"
	if rel == relation.MD {
		idx, typ = 1, "ManMadeDisaster"
	}
	disasterOnce[idx].Do(func() {
		sents, tags := disasterTrainingData(rel, 3000, 13+int64(idx))
		p := learn.TrainPerceptron(sents, tags, 4)
		disasterRec[idx] = newTaggerRecognizer(typ, p.Tags(), func(dst []int, s *Sentence) []int {
			for _, tag := range p.Tag(s.Cased) {
				dst = append(dst, slices.Index(p.Tags(), tag))
			}
			return dst
		})
	})
	return disasterRec[idx]
}
