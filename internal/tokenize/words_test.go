package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// referenceWords is the rune-loop tokenizer Words was before it wrapped
// Tokens, kept as the definition the splitter must reproduce.
func referenceWords(text string) []string {
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
			b.WriteRune(unicode.ToLower(r))
			prevLetter = true
		case (r == '\'' || r == '-') && prevLetter:
			b.WriteRune(r)
		default:
			prevLetter = false
			flush()
		}
	}
	flush()
	for i, t := range tokens {
		tokens[i] = strings.Trim(t, "'-")
	}
	w := 0
	for _, t := range tokens {
		if t != "" {
			tokens[w] = t
			w++
		}
	}
	return tokens[:w]
}

// FuzzWordsMatchesReference pins Words to the rune-loop reference, and
// Tokens to Words when several texts share one reset buffer. The seeds
// cover the trailing-apostrophe/hyphen trim, digits, case, unicode
// lowercasing that changes the byte length or maps to ASCII, invalid
// UTF-8, and mixed ASCII/non-ASCII text.
func FuzzWordsMatchesReference(f *testing.F) {
	for _, s := range []string{
		"o'-brien", "x'", "--a", "magnitude 7.8 in 1989", "UPPER Case MiXeD",
		"\u0130stanbul", "\u212a", "\xff", "\xffab'-", "café CAFÉ and-so- on'",
		"Simões visited São Paulo's man-made port-", "ȺȾ ß ǅ", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, want := Words(text), referenceWords(text)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Words(%q) = %q, want %q", text, got, want)
		}
		var toks Tokens
		toks.Append("Lead-in x'")
		toks.Reset()
		toks.Append(text)
		toks.Append(text)
		if toks.Len() != 2*len(want) {
			t.Fatalf("Tokens over %q twice: %d tokens, want %d", text, toks.Len(), 2*len(want))
		}
		for i := 0; i < toks.Len(); i++ {
			if tok := string(toks.At(i)); tok != want[i%len(want)] {
				t.Fatalf("Tokens.At(%d) over %q = %q, want %q", i, text, tok, want[i%len(want)])
			}
		}
	})
}
