package learn

import "math"

// SubseqKernel is the token-level subsequence kernel of Bunescu & Mooney
// ("Subsequence kernels for relation extraction"), computed with the
// classic Lodhi et al. dynamic program over token sequences: it counts
// weighted common subsequences up to length P, with gaps penalized by the
// decay factor Lambda in (0,1].
type SubseqKernel struct {
	// P is the maximum subsequence length counted.
	P int
	// Lambda is the gap decay factor.
	Lambda float64
}

// NewSubseqKernel returns a kernel with the given subsequence length bound
// and decay.
func NewSubseqKernel(p int, lambda float64) *SubseqKernel {
	if p < 1 {
		p = 1
	}
	if lambda <= 0 || lambda > 1 {
		lambda = 0.75
	}
	return &SubseqKernel{P: p, Lambda: lambda}
}

// raw computes the unnormalized kernel K_P(s,t).
func (k *SubseqKernel) raw(s, t []string) float64 {
	n, m := len(s), len(t)
	if n == 0 || m == 0 {
		return 0
	}
	l := k.Lambda
	// kp[i][j] = K'_{p}(s[:i], t[:j]) for the current p.
	kp := make([][]float64, n+1)
	next := make([][]float64, n+1)
	for i := range kp {
		kp[i] = make([]float64, m+1)
		next[i] = make([]float64, m+1)
		for j := range kp[i] {
			kp[i][j] = 1 // K'_0 = 1
		}
	}
	var total float64
	for p := 1; p <= k.P; p++ {
		// kpp[j] = K''_p(s[:i], t[:j]) computed per row.
		for i := range next {
			for j := range next[i] {
				next[i][j] = 0
			}
		}
		var kSum float64
		for i := 1; i <= n; i++ {
			var kpp float64
			for j := 1; j <= m; j++ {
				kpp = l * kpp
				if s[i-1] == t[j-1] {
					kpp += l * l * kp[i-1][j-1]
					// K_p gains lambda^2 * K'_{p-1} for every pair of
					// matching end positions.
					kSum += l * l * kp[i-1][j-1]
				}
				next[i][j] = l*next[i-1][j] + kpp
			}
		}
		total += kSum
		kp, next = next, kp
	}
	return total
}

// Similarity returns the normalized kernel
// K(s,t)/sqrt(K(s,s)*K(t,t)) in [0,1].
func (k *SubseqKernel) Similarity(s, t []string) float64 {
	return k.similarity(s, t, k.raw(s, s), k.raw(t, t))
}

// similarity is Similarity given the self-kernels ss = K(s,s) and
// tt = K(t,t).
func (k *SubseqKernel) similarity(s, t []string, ss, tt float64) float64 {
	if ss == 0 || tt == 0 {
		return 0
	}
	v := k.raw(s, t) / math.Sqrt(ss*tt)
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ExemplarScorer scores a token context by its maximum normalized kernel
// similarity to a set of positive exemplar contexts — a nearest-exemplar
// relation classifier on top of the subsequence kernel.
type ExemplarScorer struct {
	kernel    *SubseqKernel
	exemplars [][]string
	self      []float64 // self[i] = K(exemplars[i], exemplars[i])
	threshold float64
}

// NewExemplarScorer returns a scorer over the exemplars that matches
// contexts scoring at least threshold. It computes each exemplar's
// self-kernel once, here.
func NewExemplarScorer(k *SubseqKernel, threshold float64, exemplars [][]string) *ExemplarScorer {
	e := &ExemplarScorer{kernel: k, exemplars: exemplars, threshold: threshold}
	for _, ex := range exemplars {
		e.self = append(e.self, k.raw(ex, ex))
	}
	return e
}

// Score returns the maximum similarity of ctx to any exemplar.
func (e *ExemplarScorer) Score(ctx []string) float64 {
	var best float64
	ss := e.kernel.raw(ctx, ctx)
	for i, ex := range e.exemplars {
		if s := e.kernel.similarity(ctx, ex, ss, e.self[i]); s > best {
			best = s
		}
	}
	return best
}

// Match reports whether ctx clears the decision threshold.
func (e *ExemplarScorer) Match(ctx []string) bool {
	return e.Score(ctx) >= e.threshold
}
