package main

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"adaptiverank/internal/obs/explain"
)

// featLabel names a feature for display: the featurizer name when the
// artifact carries one, the raw index otherwise.
func featLabel(f explain.Feature) string {
	if f.Name != "" {
		return f.Name
	}
	return "#" + strconv.FormatInt(int64(f.Index), 10)
}

// evidenceString renders a decision's evidence attributes as
// space-separated key=value pairs, in recorded order.
func evidenceString(r explain.Record) string {
	s := ""
	for _, a := range r.Evidence {
		if s != "" {
			s += " "
		}
		if a.Str != "" {
			s += fmt.Sprintf("%s=%s", a.Key, a.Str)
		} else {
			s += fmt.Sprintf("%s=%g", a.Key, a.Num)
		}
	}
	return s
}

func decisionLine(r explain.Record) string {
	verdict := "hold"
	if r.Fired {
		verdict = "FIRE"
	}
	return fmt.Sprintf("pos %-6d %-7s %-5s val=%-10.5g %s",
		r.Pos, r.Detector, verdict, r.Val, evidenceString(r))
}

func printHeader(w io.Writer, l *explain.Log) {
	h := l.Header
	fmt.Fprintf(w, "run %s (%s %s/%s, GOMAXPROCS %d)\n", h.RunID, h.Go, h.GOOS, h.GOARCH, h.GOMAXPROCS)
	if h.Fingerprint != "" {
		fmt.Fprintf(w, "fingerprint: %s\n", h.Fingerprint)
	}
}

// reportSummary renders the artifact overview: the weight-drift
// timeline across model updates and per-detector decision counts.
func reportSummary(w io.Writer, dir string, topN int) error {
	l, err := explain.ReadLog(dir)
	if err != nil {
		return err
	}
	printHeader(w, l)
	fmt.Fprintf(w, "records: %d snapshots, %d attributions, %d decisions\n",
		len(l.Snapshots), len(l.Attributions), len(l.Decisions))

	if len(l.Snapshots) > 0 {
		fmt.Fprintf(w, "\n--- weight-drift timeline ---\n")
		fmt.Fprintf(w, "%-4s %-12s %-7s %-6s %10s %10s %9s %9s %9s %7s\n",
			"upd", "stage", "pos", "nnz", "L1", "L2", "dL1", "dL2", "cos", "churn")
		for _, s := range l.Snapshots {
			dl1, dl2, cos := "-", "-", "-"
			churn := "-"
			if s.DriftPrev != nil {
				dl1 = fmt.Sprintf("%.4g", s.DriftPrev.L1)
				dl2 = fmt.Sprintf("%.4g", s.DriftPrev.L2)
				cos = fmt.Sprintf("%.5f", s.DriftPrev.Cosine)
				churn = fmt.Sprintf("+%d/-%d", s.Added, s.Removed)
			}
			fmt.Fprintf(w, "%-4d %-12s %-7d %-6d %10.4g %10.4g %9s %9s %9s %7s\n",
				s.Update, s.Stage, s.Pos, s.NNZ, s.L1, s.L2, dl1, dl2, cos, churn)
		}
		last := l.Snapshots[len(l.Snapshots)-1]
		if len(last.Top) > 0 {
			fmt.Fprintf(w, "\n--- top model weights (final snapshot) ---\n")
			n := topN
			if n > len(last.Top) {
				n = len(last.Top)
			}
			for _, f := range last.Top[:n] {
				fmt.Fprintf(w, "  %12.5g  %s\n", f.Weight, featLabel(f))
			}
		}
	}

	if len(l.Decisions) > 0 {
		type stats struct {
			total, fires int
		}
		byDet := map[string]*stats{}
		var order []string
		for _, d := range l.Decisions {
			st := byDet[d.Detector]
			if st == nil {
				st = &stats{}
				byDet[d.Detector] = st
				order = append(order, d.Detector)
			}
			st.total++
			if d.Fired {
				st.fires++
			}
		}
		fmt.Fprintf(w, "\n--- detector decisions ---\n")
		for _, det := range order {
			st := byDet[det]
			fmt.Fprintf(w, "  %-8s %6d decisions, %d fired\n", det, st.total, st.fires)
		}
		fmt.Fprintln(w, "(full evidence: runreport -provenance; joined fire reports: -fired)")
	}
	if len(l.Attributions) > 0 {
		fmt.Fprintf(w, "\n%d score attributions captured (render one with -doc ID)\n", len(l.Attributions))
	}
	return nil
}

// reportProvenance lists every detector decision with its structured
// evidence — the full fire/no-fire audit trail.
func reportProvenance(w io.Writer, dir string) error {
	l, err := explain.ReadLog(dir)
	if err != nil {
		return err
	}
	if len(l.Decisions) == 0 {
		return fmt.Errorf("no detector decisions in %s (run with a detector and the explain recorder teed in)", dir)
	}
	printHeader(w, l)
	fires := 0
	for _, d := range l.Decisions {
		if d.Fired {
			fires++
		}
	}
	fmt.Fprintf(w, "decision provenance: %d decisions, %d fired\n\n", len(l.Decisions), fires)
	for _, d := range l.Decisions {
		fmt.Fprintln(w, decisionLine(d))
	}
	return nil
}

// snapshotAt returns the first train-update snapshot at or after pos —
// the model update a fire at pos triggered.
func snapshotAt(l *explain.Log, pos int) *explain.Record {
	for i := range l.Snapshots {
		s := &l.Snapshots[i]
		if s.Stage == explain.StageTrainUpdate && s.Pos >= pos {
			return s
		}
	}
	return nil
}

// reportFired answers "why did the detector fire at position k" for
// every fire in the artifact: the decision's evidence joined with the
// model update it triggered — drift vs the previous model, support
// churn, and the top weight movers.
func reportFired(w io.Writer, dir string, topN int) error {
	l, err := explain.ReadLog(dir)
	if err != nil {
		return err
	}
	printHeader(w, l)
	fires := 0
	for _, d := range l.Decisions {
		if !d.Fired {
			continue
		}
		fires++
		fmt.Fprintf(w, "\n=== fire %d: %s at position %d ===\n", fires, d.Detector, d.Pos)
		fmt.Fprintf(w, "decision: val=%g  %s\n", d.Val, evidenceString(d))
		s := snapshotAt(l, d.Pos)
		if s == nil {
			fmt.Fprintln(w, "no model update recorded after this fire (run ended or detector suppressed)")
			continue
		}
		fmt.Fprintf(w, "triggered update %d at pos %d: nnz %d, L1 %.5g, L2 %.5g\n",
			s.Update, s.Pos, s.NNZ, s.L1, s.L2)
		if s.DriftPrev != nil {
			fmt.Fprintf(w, "drift vs previous model: L1 %.5g, L2 %.5g, cosine %.5f; %d features entered, %d left (churn +%d/-%d)\n",
				s.DriftPrev.L1, s.DriftPrev.L2, s.DriftPrev.Cosine,
				s.DriftPrev.Entered, s.DriftPrev.Left, s.Added, s.Removed)
		}
		if s.DriftInit != nil {
			fmt.Fprintf(w, "drift vs initial model:  L1 %.5g, L2 %.5g, cosine %.5f\n",
				s.DriftInit.L1, s.DriftInit.L2, s.DriftInit.Cosine)
		}
		if len(s.Movers) > 0 {
			n := topN
			if n > len(s.Movers) {
				n = len(s.Movers)
			}
			fmt.Fprintln(w, "top weight movers:")
			for _, f := range s.Movers[:n] {
				fmt.Fprintf(w, "  %+12.5g  %s\n", f.Weight, featLabel(f))
			}
		}
	}
	if fires == 0 {
		fmt.Fprintln(w, "no detector fires recorded")
	}
	return nil
}

// reportDoc renders one document's exact score attribution and checks
// the reconstruction invariant (contributions + bias fold back to the
// reported score).
func reportDoc(w io.Writer, dir string, doc int64) error {
	l, err := explain.ReadLog(dir)
	if err != nil {
		return err
	}
	a, ok := l.Attribution(doc)
	if !ok {
		return fmt.Errorf("no attribution for document %d in %s (only top-ranked documents are attributed; see -explain-top)", doc, dir)
	}
	printHeader(w, l)
	fmt.Fprintf(w, "document %d: score %.6g (rank %d at position %d)\n", a.Doc, a.Score, a.Rank, a.Pos)
	recon := 0.0
	for mi, m := range a.Members {
		if len(a.Members) > 1 {
			fmt.Fprintf(w, "\nmember %d (margin %.6g):\n", mi, m.Margin)
		} else {
			fmt.Fprintf(w, "\nmargin %.6g:\n", m.Margin)
		}
		sum := 0.0
		for _, c := range m.Contribs {
			sum += c.Weight
			fmt.Fprintf(w, "  %+12.6g  %s\n", c.Weight, featLabel(c))
		}
		if m.Bias != 0 {
			fmt.Fprintf(w, "  %+12.6g  (bias)\n", m.Bias)
			sum += m.Bias
		}
		if a.Logistic {
			recon += 1 / (1 + math.Exp(-sum))
		} else {
			recon += sum
		}
	}
	fmt.Fprintf(w, "\nreconstructed score: %.6g", recon)
	if recon == a.Score {
		fmt.Fprintln(w, " (exact)")
	} else {
		fmt.Fprintf(w, " (MISMATCH vs reported %.6g)\n", a.Score)
		return fmt.Errorf("attribution of document %d does not reconstruct its score", doc)
	}
	return nil
}
