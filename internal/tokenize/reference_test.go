package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// WordsCased and Sentences are the rune-loop tokenizer and sentence
// splitter the label layer used before Doc, kept as the definition Doc
// must reproduce: Doc's sentences are the non-empty WordsCased token
// lists of the Sentences of a text.

// WordsCased splits text exactly like Words but preserves letter case,
// which the named entity recognizers rely on (capitalization features).
func WordsCased(text string) []string {
	tokens := make([]string, 0, len(text)/6)
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	prevLetter := false
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
			prevLetter = true
		case (r == '\'' || r == '-') && prevLetter:
			b.WriteRune(r)
		default:
			prevLetter = false
			flush()
		}
	}
	flush()
	w := 0
	for _, t := range tokens {
		if t = strings.Trim(t, "'-"); t != "" {
			tokens[w] = t
			w++
		}
	}
	return tokens[:w]
}

// Sentences splits text into sentences on '.', '!', '?' boundaries followed
// by whitespace or end of text, and on newlines. Abbreviation handling is
// intentionally simple: a period after a single uppercase letter (middle
// initials, "U.S.") does not end a sentence.
func Sentences(text string) []string {
	var out []string
	start := 0
	runes := []rune(text)
	emit := func(end int) {
		s := strings.TrimSpace(string(runes[start:end]))
		if s != "" {
			out = append(out, s)
		}
		start = end
	}
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		if r == '\n' {
			emit(i)
			start = i + 1
			continue
		}
		if r != '.' && r != '!' && r != '?' {
			continue
		}
		// Lookbehind: single uppercase letter before a period is an
		// initial or abbreviation.
		if r == '.' && i >= 1 && unicode.IsUpper(runes[i-1]) &&
			(i < 2 || !unicode.IsLetter(runes[i-2])) {
			continue
		}
		// Lookahead: end of text or whitespace terminates a sentence.
		if i+1 >= len(runes) || unicode.IsSpace(runes[i+1]) {
			emit(i + 1)
		}
	}
	if start < len(runes) {
		emit(len(runes))
	}
	return out
}

// referenceDoc is Doc's definition: the non-empty WordsCased token lists
// of text's Sentences.
func referenceDoc(text string) [][]string {
	var out [][]string
	for _, s := range Sentences(text) {
		if toks := WordsCased(s); len(toks) > 0 {
			out = append(out, toks)
		}
	}
	return out
}

// docSentences returns d's sentences, checking on the way that every
// lowercased token is its cased token lowered.
func docSentences(t *testing.T, d *Doc) [][]string {
	t.Helper()
	var out [][]string
	for k := 0; k < d.Len(); k++ {
		cased, lower := d.Sentence(k)
		if len(cased) == 0 || len(lower) != len(cased) {
			t.Fatalf("sentence %d: %d cased and %d lowercased tokens", k, len(cased), len(lower))
		}
		for i := range cased {
			if want := strings.ToLower(cased[i]); lower[i] != want {
				t.Fatalf("sentence %d token %d: lowercased %q, want %q", k, i, lower[i], want)
			}
		}
		out = append(out, cased)
	}
	return out
}

// FuzzDocMatchesReference pins Doc to the Sentences + WordsCased pair,
// also when a Doc is reused. The seeds cover the abbreviation rule,
// newlines, runs of terminators, the trailing apostrophe/hyphen trim,
// punctuation-only and empty text, case mapping that changes the byte
// length, invalid UTF-8, and one 5,000-token sentence.
func FuzzDocMatchesReference(f *testing.F) {
	for _, s := range []string{
		"U.S. officials met. Then they left.", "Mr. J. Smith arrived. He left.",
		"A. B. c.", "x.Y. z", "line one\nline two\n\n", "Really?! Yes. Done?!",
		"Stop! Go? End.", "o'-brien' ends- here'. -'x", "... --- !!!", "", "   ",
		"Élan vital. İstanbul'da İ. ß STRASSE. Ωmega Σίσυφος. ǅemal.",
		"\xff\xfe A.\xff b. \xe2\x82 C. D", "a. B. c\u0085d. e",
		"tab\tend.\tnext", "K.K. İ. x",
		strings.Repeat("word Name 12 x-ray ", 1250),
	} {
		f.Add(s)
	}
	var reused Doc
	f.Fuzz(func(t *testing.T, text string) {
		want := referenceDoc(text)
		var d Doc
		d.Split(text)
		if got := docSentences(t, &d); !reflect.DeepEqual(got, want) {
			t.Fatalf("Doc(%q) = %q, want %q", text, got, want)
		}
		reused.Split("Lead-in, Upper Case. x'")
		reused.Split(text)
		if got := docSentences(t, &reused); !reflect.DeepEqual(got, want) {
			t.Fatalf("reused Doc(%q) = %q, want %q", text, got, want)
		}
	})
}

func TestDocSentences(t *testing.T) {
	for text, want := range map[string][][]string{
		"First one. Second here! Third? Last": {{"First", "one"}, {"Second", "here"}, {"Third"}, {"Last"}},
		"Mr. J. Smith arrived. He left.":      {{"Mr"}, {"J", "Smith", "arrived"}, {"He", "left"}},
		"U.S. officials met in Washington.":   {{"U", "S", "officials", "met", "in", "Washington"}},
		"line one\nline two":                  {{"line", "one"}, {"line", "two"}},
		"3.5 percent rose.Then fell":          {{"3", "5", "percent", "rose", "Then", "fell"}},
		"O'Brien's man-made plan' -- done-":   {{"O'Brien's", "man-made", "plan", "done"}},
		"   ":                                 nil,
		"":                                    nil,
	} {
		var d Doc
		d.Split(text)
		if got := docSentences(t, &d); !reflect.DeepEqual(got, want) {
			t.Errorf("Doc(%q) = %q, want %q", text, got, want)
		}
	}
}
