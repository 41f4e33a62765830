package learn

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// refHMM is HMMTagger as it was before its vocabulary was interned into a
// dense emission table and Viterbi moved into pooled flat tables: one
// emission map per state, an emission lookup (and a shape) per state per
// token, and two fresh rows per token. It is the definition Decode and Tag
// must reproduce, ties included.
type refHMM struct {
	states     []string
	stateIdx   map[string]int
	trans      [][]float64
	start      []float64
	emit       []map[string]float64
	emitUnk    [][]float64
	vocabulary map[string]bool
	smoothing  float64
}

func refWordShape(w string) int {
	if w == "" {
		return shapeOther
	}
	r := []rune(w)
	allUpper, allDigit := true, true
	for _, c := range r {
		if !unicode.IsUpper(c) {
			allUpper = false
		}
		if !unicode.IsDigit(c) {
			allDigit = false
		}
	}
	switch {
	case allDigit:
		return shapeDigit
	case allUpper && len(r) > 1:
		return shapeUpper
	case unicode.IsUpper(r[0]):
		return shapeCap
	case unicode.IsLower(r[0]):
		return shapeLower
	default:
		return shapeOther
	}
}

func trainRefHMM(sentences [][]string, tags [][]string) *refHMM {
	h := &refHMM{stateIdx: make(map[string]int), vocabulary: make(map[string]bool), smoothing: 0.1}
	for _, ts := range tags {
		for _, t := range ts {
			if _, ok := h.stateIdx[t]; !ok {
				h.stateIdx[t] = len(h.states)
				h.states = append(h.states, t)
			}
		}
	}
	n := len(h.states)
	transC := make([][]float64, n)
	emitC := make([]map[string]float64, n)
	shapeC := make([][]float64, n)
	startC := make([]float64, n)
	stateC := make([]float64, n)
	for i := 0; i < n; i++ {
		transC[i] = make([]float64, n)
		emitC[i] = make(map[string]float64)
		shapeC[i] = make([]float64, numShapes)
	}
	for si, sent := range sentences {
		prev := -1
		for wi, w := range sent {
			t := h.stateIdx[tags[si][wi]]
			lw := strings.ToLower(w)
			h.vocabulary[lw] = true
			emitC[t][lw]++
			shapeC[t][refWordShape(w)]++
			stateC[t]++
			if prev < 0 {
				startC[t]++
			} else {
				transC[prev][t]++
			}
			prev = t
		}
	}
	h.trans = make([][]float64, n)
	h.start = make([]float64, n)
	h.emit = make([]map[string]float64, n)
	h.emitUnk = make([][]float64, n)
	var startTotal float64
	for i := 0; i < n; i++ {
		startTotal += startC[i]
	}
	k := h.smoothing
	for i := 0; i < n; i++ {
		h.start[i] = math.Log((startC[i] + k) / (startTotal + k*float64(n)))
		h.trans[i] = make([]float64, n)
		var rowTotal float64
		for j := 0; j < n; j++ {
			rowTotal += transC[i][j]
		}
		for j := 0; j < n; j++ {
			h.trans[i][j] = math.Log((transC[i][j] + k) / (rowTotal + k*float64(n)))
		}
		h.emit[i] = make(map[string]float64, len(emitC[i]))
		vocab := float64(len(h.vocabulary))
		for w, c := range emitC[i] {
			h.emit[i][w] = math.Log((c + k) / (stateC[i] + k*vocab))
		}
		h.emitUnk[i] = make([]float64, numShapes)
		for s := 0; s < numShapes; s++ {
			pUnk := k / (stateC[i] + k*vocab)
			pShape := (shapeC[i][s] + k) / (stateC[i] + k*numShapes)
			h.emitUnk[i][s] = math.Log(pUnk * pShape)
		}
	}
	return h
}

func (h *refHMM) emission(state int, word string) float64 {
	lw := strings.ToLower(word)
	if p, ok := h.emit[state][lw]; ok {
		return p
	}
	return h.emitUnk[state][refWordShape(word)]
}

func (h *refHMM) Tag(words []string) []string {
	n := len(h.states)
	if len(words) == 0 || n == 0 {
		return nil
	}
	T := len(words)
	delta := make([][]float64, T)
	back := make([][]int, T)
	for t := 0; t < T; t++ {
		delta[t] = make([]float64, n)
		back[t] = make([]int, n)
	}
	for s := 0; s < n; s++ {
		delta[0][s] = h.start[s] + h.emission(s, words[0])
	}
	for t := 1; t < T; t++ {
		for s := 0; s < n; s++ {
			best, bestPrev := math.Inf(-1), 0
			for p := 0; p < n; p++ {
				if v := delta[t-1][p] + h.trans[p][s]; v > best {
					best, bestPrev = v, p
				}
			}
			delta[t][s] = best + h.emission(s, words[t])
			back[t][s] = bestPrev
		}
	}
	bestLast := 0
	for s := 1; s < n; s++ {
		if delta[T-1][s] > delta[T-1][bestLast] {
			bestLast = s
		}
	}
	tags := make([]string, T)
	cur := bestLast
	for t := T - 1; t >= 0; t-- {
		tags[t] = h.states[cur]
		cur = back[t][cur]
	}
	return tags
}

// tieHMMData trains a model in which every path scores the same: one-token
// sentences, so the transitions are uniform, and each word carried each
// state equally often. Decoding it is all tie-breaking.
func tieHMMData() (sents [][]string, tags [][]string) {
	for _, w := range []string{"x", "Y"} {
		for _, t := range []string{"A", "B", "C"} {
			sents = append(sents, []string{w})
			tags = append(tags, []string{t})
		}
	}
	return sents, tags
}

// FuzzHMMMatchesReference pins Decode, Tag and wordShape to the map-based
// reference over two models: one trained on names in context, and one in
// which every path ties. The input is split on white space into words.
// The seeds cover known words, capitalized and all-caps words the model
// never saw, known words in a case never seen in training, non-ASCII and
// invalid UTF-8 words, digits, and one 5,000-word sentence.
func FuzzHMMMatchesReference(f *testing.F) {
	for _, s := range []string{
		"the meeting Zelda Quorn spoke", "ZELDA QUORN spoke", "officials ALICE stone", "Alice Stone",
		"x x x", "Y y x Y", "İSTANBUL Ωmega ß ǅemal", "1984 USA U 7", "\xff \xfe\xff A\xff",
		"' - -x", "", strings.Repeat("the Alice Stone yesterday x ", 1000),
	} {
		f.Add(s)
	}
	names, nameTags := tinyNERData(300, 1)
	ties, tieTags := tieHMMData()
	type model struct {
		h   *HMMTagger
		ref *refHMM
	}
	models := []model{
		{TrainHMM(names, nameTags), trainRefHMM(names, nameTags)},
		{TrainHMM(ties, tieTags), trainRefHMM(ties, tieTags)},
	}
	f.Fuzz(func(t *testing.T, text string) {
		words := strings.Fields(text)
		lower := make([]string, len(words))
		for i, w := range words {
			lower[i] = strings.ToLower(w)
			if got, want := wordShape(w), refWordShape(w); got != want {
				t.Fatalf("wordShape(%q) = %d, want %d", w, got, want)
			}
		}
		for m, md := range models {
			want := md.ref.Tag(words)
			if got := md.h.Tag(words); !reflect.DeepEqual(got, want) {
				t.Fatalf("model %d: Tag(%q) = %q, want %q", m, words, got, want)
			}
			prefix := []int{7}
			got := md.h.Decode(prefix, words, lower)
			if len(got) != 1+len(want) || got[0] != 7 {
				t.Fatalf("model %d: Decode(%q) = %v, want [7] followed by %d states", m, words, got, len(want))
			}
			for i, s := range got[1:] {
				if md.h.States()[s] != want[i] {
					t.Fatalf("model %d: Decode(%q)[%d] = %q, want %q", m, words, i, md.h.States()[s], want[i])
				}
			}
		}
	})
}
