package adaptiverank_test

// Scoring hot-path benchmarks: the per-strategy trajectory committed in
// BENCH_scoring.json and gated by cmd/benchgate in CI. Each strategy is
// measured two ways — the single-document Score and the batch fast path,
// both through the weight vector's one margin kernel — so the trajectory
// shows both the per-call and the amortized cost. The baseline
// file also carries the end-to-end pipeline benchmarks (see
// bench_pipeline_test.go); regenerate it intentionally with
//
//	go test -run '^$' -bench 'BenchmarkScoring|BenchmarkPipeline' -benchtime 1s -count 3 \
//	    -bench-out BENCH_scoring.json .
//
// (-count 3 because the -bench-out collector keeps the best value per
// metric across repetitions; see README "Performance").

import (
	"runtime"
	"testing"
	"time"

	"adaptiverank/internal/ranking"
	"adaptiverank/internal/vector"
)

// scoringBatch is the number of documents scored per batch op, matching
// the pipeline's score-chunk size order of magnitude.
const scoringBatch = 512

func packedDocs(docs []vector.Sparse) []vector.Packed {
	out := make([]vector.Packed, len(docs))
	for i, d := range docs {
		out[i] = d.Packed()
	}
	return out
}

// trainedRSVM and trainedBAgg train a ranker and settle it, as the
// pipeline does after every training pass, so the benchmarks score
// through the rank pass's path.
func trainedRSVM(docs []vector.Sparse) *ranking.RSVMIE {
	rk := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: 1})
	for i := 0; i < 2000; i++ {
		rk.Learn(docs[i%len(docs)], i%7 == 0)
	}
	rk.Settle()
	return rk
}

func trainedBAgg(docs []vector.Sparse) *ranking.BAggIE {
	rk := ranking.NewBAggIE(ranking.BAggOptions{})
	for i := 0; i < 2000; i++ {
		rk.Learn(docs[i%len(docs)], i%7 == 0)
	}
	rk.Settle()
	return rk
}

// benchScoring times fn (one op scores docsPerOp documents) and measures
// its steady-state allocation budget from MemStats deltas around the
// timed loop, recording the four gated metrics: ns/score, docs/sec,
// allocs/op, and B/op. fn runs once before measurement so one-time costs
// are excluded — the recorded budget is the steady state the zero-alloc
// contract pins.
func benchScoring(b *testing.B, docsPerOp int, fn func()) {
	b.Helper()
	recordBench(b)
	fn() // warm
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N)
	recordBenchMetric(b, "allocs/op", float64(m1.Mallocs-m0.Mallocs)/n)
	recordBenchMetric(b, "B/op", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	// Timing metrics only count from windows long enough to average out
	// timer granularity and scheduling jitter: the collector keeps the
	// best value across invocations, so a spuriously fast tiny-N probe
	// must not enter the pool. (A -benchtime 1x smoke therefore records
	// no timing metrics, which benchgate treats as unmeasured.)
	const minTimingWindow = 25 * time.Millisecond
	if el := b.Elapsed(); el >= minTimingWindow {
		scores := n * float64(docsPerOp)
		recordBenchMetric(b, "ns/score", float64(el.Nanoseconds())/scores)
		recordBenchMetric(b, "docs/sec", scores/el.Seconds())
	}
}

// The *Packed benchmarks time single-document Score, which runs the
// margin kernel on the zero-copy packed view of its argument. They keep
// their names because BENCH_scoring.json's gated entries are keyed by
// them.
func BenchmarkScoringRSVMIEPacked(b *testing.B) {
	docs := benchDocs(scoringBatch)
	rk := trainedRSVM(docs)
	i := 0
	benchScoring(b, 1, func() {
		rk.Score(docs[i%len(docs)])
		i++
	})
}

func BenchmarkScoringRSVMIEBatch(b *testing.B) {
	docs := benchDocs(scoringBatch)
	rk := trainedRSVM(docs)
	xs := packedDocs(docs)
	out := make([]float64, len(xs))
	benchScoring(b, len(xs), func() { rk.ScoreBatch(xs, out) })
}

func BenchmarkScoringBAggIEPacked(b *testing.B) {
	docs := benchDocs(scoringBatch)
	rk := trainedBAgg(docs)
	i := 0
	benchScoring(b, 1, func() {
		rk.Score(docs[i%len(docs)])
		i++
	})
}

func BenchmarkScoringBAggIEBatch(b *testing.B) {
	docs := benchDocs(scoringBatch)
	rk := trainedBAgg(docs)
	xs := packedDocs(docs)
	out := make([]float64, len(xs))
	benchScoring(b, len(xs), func() { rk.ScoreBatch(xs, out) })
}
