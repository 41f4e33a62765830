package main

import (
	"fmt"
	"io"
	"time"
)

// layerMetrics derives the per-layer metrics of a traced run.
// untracedWall is the median wall time of the untraced runs, in seconds.
func layerMetrics(tr *tracedRun, untracedWall float64) *metricList {
	lt := foldSpans(tr.spans)
	busy := func(ls ...layer) time.Duration {
		var d time.Duration
		for _, l := range ls {
			d += lt.busy[l]
		}
		return d
	}
	perItem := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(n)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	extract := busy(layerExtract)
	feat, score := busy(layerFeaturize), busy(layerScore)
	initT, updateT := busy(layerTrainInit), busy(layerTrainUpdate)
	observe := busy(layerDetectObserve)
	detect := busy(layerDetectPrime, layerDetectObserve, layerDetectReset)
	ranking := tr.res.Time.Ranking
	rankSelf := ranking - lt.workerSpan
	attributed := extract + detect + initT + updateT + ranking

	l := &metricList{}
	l.add("extract.calls", "count", float64(lt.calls[layerExtract]))
	l.add("extract.busy_s", "s", extract.Seconds())
	l.add("extract.ns_per_call", "ns", perItem(extract, lt.calls[layerExtract]))
	l.add("extract.useful_ratio_at_recall80", "ratio",
		ratio(float64(tr.clock.hitsReach), float64(tr.clock.callsAtReach)))
	l.add("featurize.cold_docs", "count", float64(tr.coldDocs))
	l.add("featurize.busy_s", "s", feat.Seconds())
	l.add("featurize.ns_per_cold_doc", "ns", perItem(feat, tr.coldDocs))
	l.add("score.docs", "count", float64(tr.res.ScoredDocs))
	l.add("score.busy_s", "s", score.Seconds())
	l.add("score.ns_per_doc", "ns", perItem(score, tr.res.ScoredDocs))
	l.add("score.worker_utilization", "ratio", ratio(float64(feat+score), float64(lt.slots)))
	l.add("rank.passes", "count", float64(lt.passes))
	l.add("rank.self_s", "s", rankSelf.Seconds())
	l.add("rank.self_ns_per_scored_doc", "ns", perItem(rankSelf, tr.res.ScoredDocs))
	l.add("train.updates", "count", float64(lt.calls[layerTrainUpdate]))
	l.add("train.docs_folded", "count", float64(tr.folded))
	l.add("train.init_s", "s", initT.Seconds())
	l.add("train.update_s", "s", updateT.Seconds())
	l.add("train.ns_per_doc_folded", "ns", perItem(initT+updateT, tr.folded))
	l.add("train.model_nnz", "count", float64(tr.modelNNZ))
	l.add("detect.observations", "count", float64(lt.calls[layerDetectObserve]))
	l.add("detect.fired", "count", float64(tr.fired))
	l.add("detect.observe_ns_per_doc", "ns", perItem(observe, lt.calls[layerDetectObserve]))
	// Mod-C and Wind-F have no Prime method, so prime time is exactly 0
	// on two workloads; it is shown in the layer table and counted in
	// detect.busy_s rather than reported as a metric of its own.
	l.add("detect.prime_s", "", busy(layerDetectPrime).Seconds())
	l.add("detect.reset_s", "s", busy(layerDetectReset).Seconds())
	l.add("detect.busy_s", "s", detect.Seconds())
	l.add("pipeline.self_s", "s", (tr.wall - attributed).Seconds())
	l.add("trace.coverage", "ratio", ratio(attributed.Seconds(), tr.wall.Seconds()))
	l.add("trace.overhead_frac", "ratio", ratio(tr.wall.Seconds(), untracedWall)-1)
	l.add("traced_wall_s", "", tr.wall.Seconds())
	l.add("rank_wall_s", "", ranking.Seconds())
	return l
}

// report prints the traced run's layer breakdown, and flags a
// reconciliation gap when the layers cover less than 95% of the wall time.
func (l *metricList) report(w io.Writer, workload string) {
	wall := l.get("traced_wall_s")
	fmt.Fprintf(w, "traced %s: wall %.3fs\n", workload, wall)
	// The unindented rows add up to the wall time; the indented ones
	// break the rank passes down, with worker time summed over workers.
	for _, row := range []struct{ name, metric string }{
		{"extract", "extract.busy_s"},
		{"rank passes", "rank_wall_s"},
		{"  featurize (all workers)", "featurize.busy_s"},
		{"  score (all workers)", "score.busy_s"},
		{"  rank self", "rank.self_s"},
		{"train init", "train.init_s"},
		{"train update", "train.update_s"},
		{"detect", "detect.busy_s"},
		{"  of which prime", "detect.prime_s"},
		{"  of which reset", "detect.reset_s"},
		{"pipeline self", "pipeline.self_s"},
	} {
		v := l.get(row.metric)
		fmt.Fprintf(w, "  %-28s %9.4fs %6.1f%%\n", row.name, v, 100*v/wall)
	}
	cov := l.get("trace.coverage")
	fmt.Fprintf(w, "  coverage %.4f, utilization %.4f, overhead %+.4f\n",
		cov, l.get("score.worker_utilization"), l.get("trace.overhead_frac"))
	if cov < 0.95 {
		fmt.Fprintf(w, "  GAP: layers cover %.1f%% of wall; %.4fs unattributed\n", 100*cov, l.get("pipeline.self_s"))
	}
}
