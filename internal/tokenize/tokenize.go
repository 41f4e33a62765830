// Package tokenize implements the text-processing substrate the paper
// obtains from OpenNLP: word tokenization, sentence segmentation, stopword
// filtering, and a concurrency-safe vocabulary that interns feature strings
// to dense integer ids for the learners.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Words splits text into lowercase word tokens. A token is a maximal run of
// letters, digits, or internal apostrophes/hyphens; everything else is a
// separator. Purely numeric tokens are kept (they matter for relations such
// as Election–Winner). The tokens are Tokens.Append's, as strings sharing
// one backing copy of the lowercased text.
func Words(text string) []string {
	t := Tokens{buf: make([]byte, 0, len(text)), ends: make([]int, 0, len(text)/6)}
	t.Append(text)
	s := string(t.buf)
	tokens := make([]string, len(t.ends))
	start := 0
	for i, end := range t.ends {
		tokens[i] = s[start:end]
		start = end
	}
	return tokens
}

// Tokens is a reusable buffer of lowercase word tokens: the tokens of
// every text appended since the last Reset, back to back in one byte
// slice. Once its buffers have grown, tokenizing allocates nothing.
type Tokens struct {
	buf  []byte
	ends []int // token i is buf[ends[i-1]:ends[i]], with ends[-1] = 0
}

// Reset empties t, keeping its buffers.
func (t *Tokens) Reset() { t.buf, t.ends = t.buf[:0], t.ends[:0] }

// Len reports the number of tokens in t.
func (t *Tokens) Len() int { return len(t.ends) }

// At returns token i. The bytes are t's own: they are valid until the
// next Reset, and callers must not modify them.
func (t *Tokens) At(i int) []byte {
	start := 0
	if i > 0 {
		start = t.ends[i-1]
	}
	return t.buf[start:t.ends[i]]
}

// Append appends the tokens of text, lowercased. A token starts at a
// letter or digit and runs over letters, digits, apostrophes and
// hyphens; trailing apostrophes and hyphens are trimmed. ASCII bytes
// are classified and lowercased by table. Any other byte starts a rune
// that unicode's letter, digit and lowercase rules decide, so an invalid
// byte is a separator, as in a range loop over the string.
func (t *Tokens) Append(text string) {
	inWord := false
	for i := 0; i < len(text); i++ {
		c := text[i]
		switch {
		case asciiWord[c] != 0:
			t.buf = append(t.buf, asciiWord[c])
			inWord = true
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size - 1
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				t.buf = utf8.AppendRune(t.buf, unicode.ToLower(r))
				inWord = true
			} else {
				inWord = false
				t.end()
			}
		case inWord && (c == '\'' || c == '-'):
			t.buf = append(t.buf, c)
		default:
			inWord = false
			t.end()
		}
	}
	t.end()
}

// end closes the token being built, if any: it trims the token's
// trailing apostrophes and hyphens and records its end. A token starts
// with a letter or digit, so the trim never empties it.
func (t *Tokens) end() {
	start := 0
	if n := len(t.ends); n > 0 {
		start = t.ends[n-1]
	}
	n := len(t.buf)
	for n > start && (t.buf[n-1] == '\'' || t.buf[n-1] == '-') {
		n--
	}
	t.buf = t.buf[:n]
	if n > start {
		t.ends = append(t.ends, n)
	}
}

// asciiWord maps each ASCII letter and digit to its lowercase form and
// every other byte to 0.
var asciiWord = func() (m [256]byte) {
	for c := '0'; c <= '9'; c++ {
		m[c] = byte(c)
	}
	for c := 'a'; c <= 'z'; c++ {
		m[c] = byte(c)
		m[c-'a'+'A'] = byte(c)
	}
	return m
}()

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

// stopwords is a compact English stopword list; the ranking models exclude
// these from the word feature space, as stopwords carry no extraction-task
// signal and only slow the learners down.
var stopwords = map[string]bool{}

func init() {
	for _, w := range strings.Fields(`a an and are as at be been but by for
		from had has have he her his i in is it its of on or s said she
		that the their there they this to was were which who will with
		would t not no we you your our us him them do does did so if than
		then when what where how all also into over under after before
		about more most other some such only just can could may might
		must shall out up down his hers mr mrs ms dr per am pm new one
		two three its it's were being both any each because while during
		between against again once here very own same too these those`) {
		stopwords[w] = true
	}
}

// IsStopword reports whether the (lowercase) token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// ContentWords tokenizes text and removes stopwords and single-character
// tokens, yielding the word feature stream used by the ranking models.
func ContentWords(text string) []string {
	toks := Words(text)
	w := 0
	for _, t := range toks {
		if len(t) > 1 && !stopwords[t] {
			toks[w] = t
			w++
		}
	}
	return toks[:w]
}

// Bigrams returns the adjacent-pair phrases of toks joined by '_'.
func Bigrams(toks []string) []string {
	if len(toks) < 2 {
		return nil
	}
	out := make([]string, 0, len(toks)-1)
	for i := 0; i+1 < len(toks); i++ {
		out = append(out, toks[i]+"_"+toks[i+1])
	}
	return out
}
