// Package metrics implements the paper's evaluation measures (Section 4):
// average recall curves over the fraction of processed documents, average
// precision, area under the ROC curve, mean±stddev aggregation across
// repeated executions, and the CPU-time accounting that combines measured
// ranking overhead with the simulated extraction cost.
package metrics

import (
	"fmt"
	"math"
	"time"

	"adaptiverank/internal/obs"
)

// RecallCurve computes recall after each prefix of the processing order,
// sampled on a 0..100% grid (101 points). labels[i] is the usefulness of
// the i-th processed document; totalUseful is the number of useful
// documents in the whole collection (the recall denominator).
func RecallCurve(labels []bool, totalUseful int) []float64 {
	curve := make([]float64, 101)
	if totalUseful == 0 || len(labels) == 0 {
		return curve
	}
	n := len(labels)
	cum := make([]int, n+1)
	for i, u := range labels {
		cum[i+1] = cum[i]
		if u {
			cum[i+1]++
		}
	}
	for p := 0; p <= 100; p++ {
		k := p * n / 100
		curve[p] = float64(cum[k]) / float64(totalUseful)
	}
	return curve
}

// RankedRecallCurve is the recall curve of a run's ranked phase, which
// excludes the initial sample: the recall denominator is totalUseful
// less the sample's useful documents, and a sample that already covered
// every useful document makes any order of the rest perfect (a curve of
// ones).
func RankedRecallCurve(labels []bool, totalUseful, sampleUseful int) []float64 {
	if denom := totalUseful - sampleUseful; denom > 0 {
		return RecallCurve(labels, denom)
	}
	curve := make([]float64, 101)
	for i := range curve {
		curve[i] = 1
	}
	return curve
}

// RecallAt interpolates a recall curve at a percentage in [0,100].
func RecallAt(curve []float64, pct float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	if pct <= 0 {
		return curve[0]
	}
	if pct >= 100 {
		return curve[len(curve)-1]
	}
	lo := int(pct)
	frac := pct - float64(lo)
	return curve[lo]*(1-frac) + curve[lo+1]*frac
}

// AveragePrecision computes the standard average precision of a ranking:
// the mean, over the useful documents, of the precision at each useful
// document's position.
func AveragePrecision(labels []bool) float64 {
	var hits, sum float64
	for i, u := range labels {
		if u {
			hits++
			sum += hits / float64(i+1)
		}
	}
	if hits == 0 {
		return 0
	}
	return sum / hits
}

// AUC computes the area under the ROC curve of the ranking via the
// Mann–Whitney statistic: the probability that a uniformly random useful
// document is ranked before a uniformly random useless one. Ties are
// impossible because a ranking is a total order.
func AUC(labels []bool) float64 {
	var pos, neg, before float64
	for _, u := range labels {
		if u {
			pos++
			continue
		}
		neg++
		before += pos // useful docs ranked before this useless one
	}
	if pos == 0 || neg == 0 {
		return 0.5
	}
	return before / (pos * neg)
}

// Stat is a mean ± standard deviation pair aggregated over repeated runs.
type Stat struct {
	Mean, Std float64
	N         int
}

// Aggregate computes mean and (population) standard deviation.
func Aggregate(values []float64) Stat {
	n := len(values)
	if n == 0 {
		return Stat{}
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range values {
		d := v - mean
		ss += d * d
	}
	return Stat{Mean: mean, Std: math.Sqrt(ss / float64(n)), N: n}
}

// String renders the stat the way the paper's tables do ("45.7±0.3%",
// values already in percent).
func (s Stat) String() string {
	return fmt.Sprintf("%.1f±%.1f%%", s.Mean, s.Std)
}

// AggregateCurves averages per-run recall curves pointwise.
func AggregateCurves(curves [][]float64) []float64 {
	if len(curves) == 0 {
		return nil
	}
	out := make([]float64, len(curves[0]))
	for _, c := range curves {
		for i, v := range c {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(curves))
	}
	return out
}

// TimeAccount combines the simulated extraction CPU time with the measured
// ranking and update-detection overheads (see DESIGN.md §2 for the
// substitution rationale).
type TimeAccount struct {
	// Extraction is simulated: documents processed × per-document cost
	// of the extraction system.
	Extraction time.Duration
	// Ranking is the measured CPU time spent scoring and ordering
	// documents.
	Ranking time.Duration
	// Detection is the measured CPU time spent in update detection.
	Detection time.Duration
	// Training is the measured CPU time spent in model training/updates.
	Training time.Duration
}

// Total returns the combined CPU time.
func (t TimeAccount) Total() time.Duration {
	return t.Extraction + t.Ranking + t.Detection + t.Training
}

// Overhead returns the non-extraction share.
func (t TimeAccount) Overhead() time.Duration {
	return t.Ranking + t.Detection + t.Training
}

// Add accumulates another account.
func (t *TimeAccount) Add(o TimeAccount) {
	t.Extraction += o.Extraction
	t.Ranking += o.Ranking
	t.Detection += o.Detection
	t.Training += o.Training
}

// Record publishes the account as gauges in an observability registry
// (nil-safe, like all registry accessors), one gauge per component plus
// the total — the Section 4 time-accounting breakdown as live metrics.
func (t TimeAccount) Record(reg *obs.Registry) {
	reg.Gauge(obs.MetricTimeExtractionSeconds).Set(t.Extraction.Seconds())
	reg.Gauge(obs.MetricTimeRankingSeconds).Set(t.Ranking.Seconds())
	reg.Gauge(obs.MetricTimeDetectionSeconds).Set(t.Detection.Seconds())
	reg.Gauge(obs.MetricTimeTrainingSeconds).Set(t.Training.Seconds())
	reg.Gauge(obs.MetricTimeTotalSeconds).Set(t.Total().Seconds())
}

// Minutes renders a duration in the paper's CPU-minute unit.
func Minutes(d time.Duration) float64 { return d.Minutes() }
