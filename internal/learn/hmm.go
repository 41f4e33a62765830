package learn

import (
	"math"
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// HMMTagger is a supervised first-order hidden Markov model sequence tagger
// with add-k smoothed transition and emission probabilities and a
// shape-based back-off for unknown words. It stands in for the HMM named
// entity recognizer of Ekbal & Bandyopadhyay used for Person recognition in
// the paper's PO pipeline. It is safe for concurrent use.
type HMMTagger struct {
	states []string
	trans  [][]float64 // log P(state_j | state_i)
	start  []float64   // log P(state | <s>)
	// ids interns the lowercased training vocabulary; emit[s][id] is
	// log P(word | s), or unseen when the word never carried state s.
	ids     map[string]int32
	emit    [][]float64
	emitUnk [][]float64 // log P(shape | state) back-off, indexed by shape
	pool    sync.Pool   // *viterbi
}

// unseen marks an emit entry whose word never carried the state in
// training; such a word falls back to the state's shape back-off. Every
// smoothed log-probability is at most 0, so no entry is ever positive.
const unseen = 1.0

// viterbi is one decoding's scratch, pooled across calls: two rows of
// path scores, the back-pointers and one emission column per token.
type viterbi struct {
	prev, cur []float64
	back      []int     // back[t*n+s]: best predecessor of state s at token t
	col       []float64 // the emission column of the current token
}

// Word shapes used by the unknown-word back-off.
const (
	shapeLower = iota
	shapeCap
	shapeUpper
	shapeDigit
	shapeOther
	numShapes
)

func wordShape(w string) int {
	if w == "" {
		return shapeOther
	}
	allUpper, allDigit := true, true
	runes := 0
	for _, c := range w {
		if !unicode.IsUpper(c) {
			allUpper = false
		}
		if !unicode.IsDigit(c) {
			allDigit = false
		}
		runes++
	}
	first, _ := utf8.DecodeRuneInString(w)
	switch {
	case allDigit:
		return shapeDigit
	case allUpper && runes > 1:
		return shapeUpper
	case unicode.IsUpper(first):
		return shapeCap
	case unicode.IsLower(first):
		return shapeLower
	default:
		return shapeOther
	}
}

// TrainHMM estimates an HMM tagger from labelled sequences. sentences[i]
// and tags[i] are parallel slices; tag inventories are discovered from the
// data.
func TrainHMM(sentences [][]string, tags [][]string) *HMMTagger {
	h := &HMMTagger{ids: make(map[string]int32)}
	stateIdx := make(map[string]int)
	for _, ts := range tags {
		for _, t := range ts {
			if _, ok := stateIdx[t]; !ok {
				stateIdx[t] = len(h.states)
				h.states = append(h.states, t)
			}
		}
	}
	n := len(h.states)
	transC := make([][]float64, n)
	emitC := make([][]float64, n) // [state][word id]
	shapeC := make([][]float64, n)
	startC := make([]float64, n)
	stateC := make([]float64, n)
	for i := 0; i < n; i++ {
		transC[i] = make([]float64, n)
		shapeC[i] = make([]float64, numShapes)
	}
	for si, sent := range sentences {
		prev := -1
		for wi, w := range sent {
			t := stateIdx[tags[si][wi]]
			lw := strings.ToLower(w)
			id, ok := h.ids[lw]
			if !ok {
				id = int32(len(h.ids))
				h.ids[lw] = id
				for i := range emitC {
					emitC[i] = append(emitC[i], 0)
				}
			}
			emitC[t][id]++
			shapeC[t][wordShape(w)]++
			stateC[t]++
			if prev < 0 {
				startC[t]++
			} else {
				transC[prev][t]++
			}
			prev = t
		}
	}
	// Normalize with add-k smoothing into log space.
	h.trans = make([][]float64, n)
	h.start = make([]float64, n)
	h.emit = make([][]float64, n)
	h.emitUnk = make([][]float64, n)
	var startTotal float64
	for i := 0; i < n; i++ {
		startTotal += startC[i]
	}
	const k = 0.1
	vocab := float64(len(h.ids))
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
		h.emit[i] = make([]float64, len(h.ids))
		for id, c := range emitC[i] {
			h.emit[i][id] = unseen
			if c > 0 {
				h.emit[i][id] = math.Log((c + k) / (stateC[i] + k*vocab))
			}
		}
		h.emitUnk[i] = make([]float64, numShapes)
		for s := 0; s < numShapes; s++ {
			// Reserve one smoothing unit of emission mass for unknown
			// words, distributed by shape.
			pUnk := k / (stateC[i] + k*vocab)
			pShape := (shapeC[i][s] + k) / (stateC[i] + k*numShapes)
			h.emitUnk[i][s] = math.Log(pUnk * pShape)
		}
	}
	return h
}

// States returns the tag inventory in discovery order.
func (h *HMMTagger) States() []string { return h.states }

// column writes the emission log-probability of one token into col, for
// every state: one vocabulary lookup by its lowercase form lw, and the
// shape of the word as written only if some state backs off to it.
func (h *HMMTagger) column(col []float64, word, lw string) {
	id, known := h.ids[lw]
	shape := -1
	for s := range col {
		if known {
			if p := h.emit[s][id]; p != unseen {
				col[s] = p
				continue
			}
		}
		if shape < 0 {
			shape = wordShape(word)
		}
		col[s] = h.emitUnk[s][shape]
	}
}

// Decode runs Viterbi decoding over words and appends the index into
// States of each word's most likely tag to dst. lower[i] must be
// strings.ToLower(words[i]). Ties go to the lowest state index, at every
// step and at the end. Once the pooled tables have grown to the sentence
// length, Decode allocates nothing beyond growing dst.
func (h *HMMTagger) Decode(dst []int, words, lower []string) []int {
	n, T := len(h.states), len(words)
	if T == 0 || n == 0 {
		return dst
	}
	vt, _ := h.pool.Get().(*viterbi)
	if vt == nil {
		vt = &viterbi{prev: make([]float64, n), cur: make([]float64, n), col: make([]float64, n)}
	}
	defer h.pool.Put(vt)
	vt.back = slices.Grow(vt.back[:0], T*n)[:T*n]
	prev, cur, col, back := vt.prev, vt.cur, vt.col, vt.back
	h.column(col, words[0], lower[0])
	for s := 0; s < n; s++ {
		prev[s] = h.start[s] + col[s]
	}
	for t := 1; t < T; t++ {
		h.column(col, words[t], lower[t])
		for s := 0; s < n; s++ {
			best, bestPrev := math.Inf(-1), 0
			for p := 0; p < n; p++ {
				if v := prev[p] + h.trans[p][s]; v > best {
					best, bestPrev = v, p
				}
			}
			cur[s] = best + col[s]
			back[t*n+s] = bestPrev
		}
		prev, cur = cur, prev
	}
	bestLast := 0
	for s := 1; s < n; s++ {
		if prev[s] > prev[bestLast] {
			bestLast = s
		}
	}
	start := len(dst)
	dst = slices.Grow(dst, T)[:start+T]
	for t, s := T-1, bestLast; t >= 0; t-- {
		dst[start+t] = s
		s = back[t*n+s]
	}
	return dst
}

// Tag returns the most likely tag sequence for words; see Decode.
func (h *HMMTagger) Tag(words []string) []string {
	if len(words) == 0 || len(h.states) == 0 {
		return nil
	}
	lower := make([]string, len(words))
	for i, w := range words {
		lower[i] = strings.ToLower(w)
	}
	tags := make([]string, len(words))
	for i, s := range h.Decode(nil, words, lower) {
		tags[i] = h.states[s]
	}
	return tags
}
