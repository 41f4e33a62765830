// Package report turns JSONL event traces (internal/obs) into per-run
// analytics: the recall-vs-documents-processed curve the paper's
// evaluation revolves around, detector decision timelines with
// fire/suppress markers, model-update feature-churn summaries, the
// Section 4 per-phase CPU-time accounts, and side-by-side A/B
// comparison of two traces. cmd/runreport is the CLI front end.
package report

import (
	"fmt"
	"io"
	"os"
	"time"

	"adaptiverank/internal/metrics"
	"adaptiverank/internal/obs"
)

// Update is one model update reconstructed from the trace.
type Update struct {
	// Position is the ranked-phase document count at the update.
	Position int `json:"position"`
	// Buffered is the number of documents folded into the model.
	Buffered int `json:"buffered"`
	// Dur is the measured training time.
	Dur time.Duration `json:"dur_ns"`
	// Added/Removed/Size describe feature churn (learned strategies).
	Added   int `json:"added"`
	Removed int `json:"removed"`
	Size    int `json:"size"`
}

// Decision is one update-detector decision.
type Decision struct {
	// Position is the ranked-phase document count at the decision.
	Position int `json:"position"`
	// Detector names the policy (Mod-C, Top-K, ...).
	Detector string `json:"detector"`
	// Value is the decision statistic (angle, footrule, shift fraction).
	Value float64 `json:"value"`
	// Fired reports whether the statistic crossed the trigger threshold.
	Fired bool `json:"fired"`
}

// Run is the reconstructed analytics of one pipeline run.
type Run struct {
	// Index numbers runs in trace order (0-based).
	Index int `json:"index"`
	// Strategy is the ranking strategy name from run-started.
	Strategy string `json:"strategy"`
	// CollectionSize is the document-collection size.
	CollectionSize int `json:"collection_size"`
	// TotalUseful is the collection's useful-document count when the
	// trace carries it (run-started Val), 0 otherwise.
	TotalUseful int `json:"total_useful,omitempty"`
	// SampleDocs/SampleUseful describe the initial sample phase.
	SampleDocs   int `json:"sample_docs"`
	SampleUseful int `json:"sample_useful"`
	// Docs/Useful count ranked-phase documents.
	Docs   int `json:"docs"`
	Useful int `json:"useful"`
	// Reranks counts (re-)rankings of the pending pool.
	Reranks int `json:"reranks"`
	// Labels is the ranked-phase usefulness sequence in processing
	// order — the raw material of every ranking-quality measure.
	Labels []bool `json:"-"`
	// Curve is the recall-vs-%processed curve (101 points, by
	// metrics.RankedRecallCurve as pipeline.Result.Curve is), present
	// when TotalUseful is known.
	Curve []float64 `json:"curve,omitempty"`
	// FinalRecall is Curve's endpoint (ranked-phase recall).
	FinalRecall float64 `json:"final_recall,omitempty"`
	// Decisions is the detector decision timeline.
	Decisions []Decision `json:"decisions,omitempty"`
	// Updates lists the model updates with feature churn.
	Updates []Update `json:"updates,omitempty"`
	// Phases are the Section 4 CPU-time accounts ("extraction",
	// "ranking", "detection", "training", "total") folded from the
	// trace — identical to the run's Result.Time by construction.
	Phases map[string]time.Duration `json:"phases_ns"`
	// TotalCPU is the run-finished total (equals Phases["total"]).
	TotalCPU time.Duration `json:"total_cpu_ns"`
	// WallClock is the run's wall-time span (last minus first stamp).
	WallClock time.Duration `json:"wall_clock_ns"`
	// Complete reports whether the trace contains the run-finished
	// event (false for truncated traces).
	Complete bool `json:"complete"`
}

// RecallAt interpolates the run's recall curve at pct% processed.
func (r *Run) RecallAt(pct float64) float64 { return metrics.RecallAt(r.Curve, pct) }

// FireCount returns the number of fired detector decisions.
func (r *Run) FireCount() int {
	n := 0
	for _, d := range r.Decisions {
		if d.Fired {
			n++
		}
	}
	return n
}

// Report is the analysis of one trace (one run per pipeline execution;
// cmd/experiments traces concatenate many runs).
type Report struct {
	Runs []Run `json:"runs"`
}

// Parse reconstructs per-run analytics from a trace's events. It never
// assumes a complete run: events before the first run-started record
// open an implicit unnamed run, a run missing its run-finished event is
// reported with Complete == false, and an empty trace yields an empty
// report rather than an error — a live or killed run's partial trace is
// a normal input, not a corrupt one.
func Parse(events []obs.Event) (*Report, error) {
	rep := &Report{}
	if len(events) == 0 {
		return rep, nil
	}
	var cur *Run
	var curEvents []obs.Event
	var firstT, lastT int64
	finish := func() {
		if cur == nil {
			return
		}
		cur.Phases = obs.PhaseTotals(curEvents)
		if lastT >= firstT {
			cur.WallClock = time.Duration(lastT - firstT)
		}
		if cur.TotalUseful > 0 {
			cur.Curve = metrics.RankedRecallCurve(cur.Labels, cur.TotalUseful, cur.SampleUseful)
			cur.FinalRecall = cur.Curve[len(cur.Curve)-1]
		}
		rep.Runs = append(rep.Runs, *cur)
		cur, curEvents = nil, nil
	}
	open := func(e obs.Event) {
		cur = &Run{
			Index:          len(rep.Runs),
			Strategy:       e.Name,
			CollectionSize: e.N,
			TotalUseful:    int(e.Val),
		}
		firstT, lastT = e.T, e.T
	}
	for _, e := range events {
		if e.Kind == obs.KindRunStarted {
			finish()
			open(e)
			continue
		}
		if cur == nil {
			open(obs.Event{T: e.T})
		}
		if e.T > lastT {
			lastT = e.T
		}
		curEvents = append(curEvents, e)
		switch e.Kind {
		case obs.KindSampleLabelled:
			cur.SampleDocs++
			if e.Useful {
				cur.SampleUseful++
			}
		case obs.KindDocExtracted:
			cur.Docs++
			cur.Labels = append(cur.Labels, e.Useful)
			if e.Useful {
				cur.Useful++
			}
		case obs.KindRankFinished:
			cur.Reranks++
		case obs.KindDetectorDecision:
			cur.Decisions = append(cur.Decisions, Decision{
				Position: cur.Docs, Detector: e.Name, Value: e.Val, Fired: e.Fired,
			})
		case obs.KindModelUpdated:
			cur.Updates = append(cur.Updates, Update{
				Position: cur.Docs, Buffered: e.N, Dur: e.Dur,
				Added: e.Added, Removed: e.Removed, Size: int(e.Val),
			})
		case obs.KindRunFinished:
			cur.TotalCPU = e.Dur
			cur.Complete = true
		}
	}
	finish()
	return rep, nil
}

// FromReader parses a JSONL trace stream into a Report. The stream is
// read tolerantly (obs.ReadEventsPartial): a final record truncated by
// a killed writer is dropped rather than failing the whole analysis.
func FromReader(r io.Reader) (*Report, error) {
	events, err := obs.ReadEventsPartial(r)
	if err != nil {
		return nil, err
	}
	return Parse(events)
}

// FromFile parses the JSONL trace at path into a Report.
func FromFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer f.Close()
	rep, err := FromReader(f)
	if err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return rep, nil
}
