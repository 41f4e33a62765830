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

// Doc is a document split into sentences of word tokens by one pass over
// its text. Its tokens are Words' tokens: each comes as written, a
// substring of the text, and lowercased. A sentence ends at a newline,
// and at '.', '!' or '?' followed by whitespace or the end of the text,
// except that a period after a lone capital letter (an initial, "U.S.")
// ends none, where the letters around it are read in the whole text.
// Every boundary is a separator, so no token crosses one. A
// Doc is reused across documents: once its buffers have grown, Split
// allocates one string per document, holding the lowercase forms of the
// tokens that lowercasing changes.
type Doc struct {
	cased, lower []string
	ends         []int  // sentence k is tokens [ends[k-1], ends[k]), with ends[-1] = 0
	low          []byte // the changed tokens' lowercase forms, back to back
	lowEnds      []int  // per token, the end of its form in low; unchanged tokens add nothing
}

// Split replaces d's contents with the sentences of text.
func (d *Doc) Split(text string) {
	d.cased, d.ends, d.low, d.lowEnds = d.cased[:0], d.ends[:0], d.low[:0], d.lowEnds[:0]
	start := -1          // byte offset of the token being scanned, or -1
	changed := false     // whether lowercasing changes that token
	var prev, prev2 rune // the two runes before text[i]; 0 before the text
	for i := 0; i < len(text); {
		r, size := rune(text[i]), 1
		var lr rune // r's lowercase form if r is a letter or digit, else 0
		if r < utf8.RuneSelf {
			lr = rune(asciiWord[r])
		} else {
			r, size = utf8.DecodeRuneInString(text[i:])
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				lr = unicode.ToLower(r)
			}
		}
		switch {
		case lr != 0:
			if start < 0 {
				start, changed = i, false
			}
			if lr != r && !changed {
				changed = true
				d.low = append(d.low, text[start:i]...)
			}
			if changed {
				d.low = utf8.AppendRune(d.low, lr)
			}
		case start >= 0 && (r == '\'' || r == '-'):
			if changed {
				d.low = append(d.low, byte(r))
			}
		default:
			if start >= 0 {
				d.endToken(text[start:i], changed)
				start = -1
			}
			if r == '\n' || (r == '.' || r == '!' || r == '?') && endsSentence(text, i, prev, prev2) {
				d.endSentence()
			}
		}
		prev2, prev = prev, r
		i += size
	}
	if start >= 0 {
		d.endToken(text[start:], changed)
	}
	d.endSentence()

	d.lower = append(d.lower[:0], d.cased...)
	if len(d.low) > 0 {
		low, from := string(d.low), 0
		for k, to := range d.lowEnds {
			if to > from {
				d.lower[k] = low[from:to]
			}
			from = to
		}
	}
}

// endsSentence reports whether the terminator text[i] ends a sentence,
// given the two runes before it.
func endsSentence(text string, i int, prev, prev2 rune) bool {
	if text[i] == '.' && unicode.IsUpper(prev) && !unicode.IsLetter(prev2) {
		return false
	}
	if i+1 == len(text) {
		return true
	}
	next, _ := utf8.DecodeRuneInString(text[i+1:])
	return unicode.IsSpace(next)
}

// endToken records tok, trimmed of trailing apostrophes and hyphens. A
// token starts with a letter or digit, so the trim never empties it.
func (d *Doc) endToken(tok string, changed bool) {
	n := len(tok)
	for tok[n-1] == '\'' || tok[n-1] == '-' {
		n--
	}
	d.cased = append(d.cased, tok[:n])
	if changed {
		d.low = d.low[:len(d.low)-(len(tok)-n)]
	}
	d.lowEnds = append(d.lowEnds, len(d.low))
}

// endSentence closes the current sentence unless it has no tokens.
func (d *Doc) endSentence() {
	last := 0
	if n := len(d.ends); n > 0 {
		last = d.ends[n-1]
	}
	if len(d.cased) > last {
		d.ends = append(d.ends, len(d.cased))
	}
}

// Len reports the number of sentences. A sentence has at least one token.
func (d *Doc) Len() int { return len(d.ends) }

// Sentence returns the tokens of sentence k as written and lowercased:
// lower[i] is strings.ToLower(cased[i]). The slices are d's own and stay
// valid until the next Split; the strings stay valid for good.
func (d *Doc) Sentence(k int) (cased, lower []string) {
	start := 0
	if k > 0 {
		start = d.ends[k-1]
	}
	return d.cased[start:d.ends[k]], d.lower[start:d.ends[k]]
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
