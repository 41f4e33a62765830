// Command runreport renders the artifacts a run's observability sinks
// (internal/obs/sinks) write, choosing what to render from the path:
//
//   - A regular file is an event trace (-trace): per-run recall curves,
//     detector decision timelines, model-update feature churn and
//     per-phase CPU-time accounts, in text or JSON; with -chrome, Chrome
//     trace-event JSON that Perfetto (https://ui.perfetto.dev) renders
//     as a per-run flame timeline.
//   - A directory is read by what it holds: meta.json marks a postmortem
//     bundle (-blackbox), manifest.jsonl a profile directory (-prof-dir)
//     and explain.jsonl an explain log (-explain-dir). With no view flag
//     it prints the summary of each, in that order.
//
// -against BASE names the baseline: side A of a trace comparison, the
// old side of a profile diff. CPU samples carry a pprof "phase" label,
// so per-phase CPU tables and function diffs come from `go tool pprof`;
// the profile views print the commands.
//
//	runreport [-json] [-run N] [-against BASE.jsonl] TRACE.jsonl
//	runreport -chrome OUT TRACE.jsonl         ("-" for stdout)
//	runreport [-n K] DIR                      summary of every artifact in DIR
//	runreport -against BASEDIR DIR            environment drift between profile dirs
//	runreport -provenance DIR                 every detector decision
//	runreport [-n K] -fired DIR               fires joined to the updates they triggered
//	runreport -doc ID DIR                     score attribution of one document
//
// A flag that reads an artifact the path does not hold, two view flags,
// a negative -n, -n with a view other than -fired, or other than one
// path is a usage error (exit 2); a read or render error exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"adaptiverank/internal/obs/blackbox"
	"adaptiverank/internal/obs/explain"
	"adaptiverank/internal/obs/prof"
	"adaptiverank/internal/obs/report"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("runreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut    = fs.Bool("json", false, "trace: emit JSON instead of text")
		runIdx     = fs.Int("run", -1, "trace: report only this run index; negative means every run, or run 0 with -against")
		chrome     = fs.String("chrome", "", "trace: convert to Chrome trace-event JSON (Perfetto-loadable), written to this file (\"-\" for stdout)")
		against    = fs.String("against", "", "baseline to compare with: a trace (side A) or a profile directory (the old side)")
		provenance = fs.Bool("provenance", false, "explain log: list every detector decision with its structured evidence")
		fired      = fs.Bool("fired", false, "explain log: join each detector fire with the model update it triggered: evidence, drift, churn, top movers")
		doc        = fs.Int64("doc", -1, "explain log: render the score attribution of this document id")
		rows       = fs.Int("n", 0, "rows per explain table (0 means 10) or ring events of a bundle (0 means 15)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: runreport [flags] TRACE.jsonl|DIR")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "runreport:", msg)
		fs.Usage()
		return 2
	}
	views := 0
	for _, set := range []bool{*chrome != "", *against != "", *provenance, *fired, *doc >= 0} {
		if set {
			views++
		}
	}
	switch {
	case fs.NArg() != 1:
		return usage("want exactly one artifact path")
	case *rows < 0:
		return usage("-n must not be negative")
	case views > 1:
		return usage("at most one of -chrome, -against, -provenance, -fired, -doc")
	}
	explainRows, ringEvents := 10, 15
	if *rows > 0 {
		explainRows, ringEvents = *rows, *rows
	}

	path := fs.Arg(0)
	fi, err := os.Stat(path)
	if err != nil {
		fmt.Fprintln(stderr, "runreport:", err)
		return 1
	}
	trace := !fi.IsDir()
	has := func(marker string) bool {
		_, err := os.Stat(filepath.Join(path, marker))
		return !trace && err == nil
	}
	bundle, profile, explained := has(blackbox.MetaName), has(prof.ManifestName), has(explain.LogName)
	switch {
	case (*jsonOut || *runIdx >= 0 || *chrome != "") && !trace:
		return usage("-json, -run and -chrome read a trace; " + path + " is a directory")
	case *against != "" && !trace && !profile:
		return usage("-against reads a trace or a profile directory; " + path + " holds neither")
	case (*provenance || *fired || *doc >= 0) && !explained:
		return usage("-provenance, -fired and -doc read an explain log; " + path + " holds none")
	case *rows > 0 && !bundle && !explained:
		return usage("-n reads an explain log or a postmortem bundle; " + path + " holds neither")
	case *rows > 0 && views > 0 && !*fired:
		return usage("-n bounds only a directory's summaries and -fired")
	}

	switch {
	case *chrome != "":
		err = writeChrome(stdout, path, *chrome)
	case trace:
		err = reportTrace(stdout, path, *against, *runIdx, *jsonOut)
	case *against != "":
		err = diffDirs(stdout, *against, path)
	case *provenance:
		err = reportProvenance(stdout, path)
	case *fired:
		err = reportFired(stdout, path, explainRows)
	case *doc >= 0:
		err = reportDoc(stdout, path, *doc)
	case !bundle && !profile && !explained:
		err = fmt.Errorf("%s holds no run artifact (%s, %s or %s)",
			path, blackbox.MetaName, prof.ManifestName, explain.LogName)
	default:
		sep := ""
		for _, s := range []struct {
			held    bool
			summary func() error
		}{
			{bundle, func() error { return reportBundle(stdout, path, ringEvents) }},
			{profile, func() error { return reportDir(stdout, path) }},
			{explained, func() error { return reportSummary(stdout, path, explainRows) }},
		} {
			if s.held && err == nil {
				fmt.Fprint(stdout, sep)
				sep = "\n"
				err = s.summary()
			}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "runreport:", err)
		return 1
	}
	return 0
}

// reportTrace renders the event trace at path: every run, or run idx;
// or, against a baseline trace, the A/B comparison of run idx (default
// 0) with the baseline's run on side A.
func reportTrace(w io.Writer, path, base string, idx int, jsonOut bool) error {
	if base != "" {
		idx = max(idx, 0)
	}
	rep, err := readTrace(path, idx)
	if err != nil {
		return err
	}
	var view interface {
		WriteText(io.Writer) error
		WriteJSON(io.Writer) error
	} = rep
	if base != "" {
		baseRep, err := readTrace(base, idx)
		if err != nil {
			return err
		}
		view = report.Compare(&baseRep.Runs[0], &rep.Runs[0])
	}
	if jsonOut {
		return view.WriteJSON(w)
	}
	return view.WriteText(w)
}

// readTrace reads the trace at path and keeps only run idx when idx is
// not negative.
func readTrace(path string, idx int) (*report.Report, error) {
	rep, err := report.FromFile(path)
	if err != nil || idx < 0 {
		return rep, err
	}
	if idx >= len(rep.Runs) {
		return nil, fmt.Errorf("%s has %d runs, no run %d", path, len(rep.Runs), idx)
	}
	return &report.Report{Runs: rep.Runs[idx : idx+1]}, nil
}

// writeChrome converts the JSONL trace at in into Chrome trace-event
// JSON at out ("-" = stdout).
func writeChrome(stdout io.Writer, in, out string) error {
	if out == "-" {
		return report.ChromeFromFile(in, stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.ChromeFromFile(in, f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chrome trace written to %s (load at https://ui.perfetto.dev)\n", out)
	return nil
}
