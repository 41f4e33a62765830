// Command adaptiverank runs one adaptive ranked-extraction session over a
// generated corpus and reports how quickly the useful documents were
// found, compared against a random processing order.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adaptiverank"
	"adaptiverank/internal/durable"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/blackbox"
	"adaptiverank/internal/obs/prof"
	"adaptiverank/internal/relation"
)

func main() {
	// Arm a chaos kill point when cmd/crashtest asked for one; a no-op
	// in every normal run.
	durable.ArmFromEnv()
	os.Exit(run())
}

// run is the real main; it returns the process exit code so that
// deferred cleanup (trace flush + close) executes on every exit path,
// including pipeline errors — os.Exit in main would skip it.
func run() (code int) {
	var (
		relCode  = flag.String("relation", "ND", "relation code: PO DO PC ND MD PH EW")
		docs     = flag.Int("docs", 8000, "corpus size to generate")
		seed     = flag.Int64("seed", 42, "corpus and run seed")
		strategy = flag.String("strategy", "rsvm", "ranking strategy: rsvm, bagg, random")
		detector = flag.String("detector", "modc", "update detector: modc, topk, windf, feats, none")
		sample   = flag.Int("sample", 0, "initial sample size (0 = auto)")
		maxDocs  = flag.Int("max", 0, "stop after processing this many ranked documents (0 = all)")
		trace    = flag.String("trace", "", "write a JSONL event trace of the run to this file (convert with obsreport -chrome for a Perfetto flame timeline)")
		metrics  = flag.Bool("metrics", false, "dump collected metrics (expvar-style text) to stderr on exit")
		serve    = flag.String("serve", "", "serve /metrics (Prometheus), /events (SSE), /runs, /alerts, /healthz and /debug/pprof on this address during the run (e.g. localhost:6060)")
		sloSlope = flag.Float64("slo-min-recall-slope", 0, "SLO watchdog: alert when useful-docs-per-document over the trailing window falls below this floor (0 = rule off)")
		sloFire  = flag.Float64("slo-max-fire-rate", 0, "SLO watchdog: alert when the detector fire rate over the trailing window exceeds this ceiling (0 = rule off)")
		sloP99   = flag.Duration("slo-max-p99", 0, "SLO watchdog: alert when the p99 per-document step latency exceeds this bound (0 = rule off)")
		sloWin   = flag.Int("slo-window", 0, "SLO watchdog: override the rules' trailing-window sizes (0 = per-rule defaults)")
		sloFault = flag.Float64("slo-max-fault-rate", 0, "SLO watchdog: alert when the extraction fault rate over the trailing window exceeds this ceiling (0 = rule off)")

		checkpoint = flag.String("checkpoint", "", "write a crash-safe run journal to this file (resume with -resume)")
		resume     = flag.Bool("resume", false, "resume from the -checkpoint journal: replay recorded outcomes and continue where the interrupted run stopped")
		resultOut  = flag.String("result-out", "", "write the final result (tuples, order, counts) as JSON to this file")

		flakyError   = flag.Float64("flaky-error-rate", 0, "fault injection: probability of a transient extractor error per attempt")
		flakyPanic   = flag.Float64("flaky-panic-rate", 0, "fault injection: probability of an extractor panic per attempt")
		flakyHang    = flag.Float64("flaky-hang-rate", 0, "fault injection: probability of an extractor hang per attempt")
		flakyLatency = flag.Float64("flaky-latency-rate", 0, "fault injection: probability of a latency spike per attempt")
		flakyDelay   = flag.Duration("flaky-latency", 0, "fault injection: latency spike duration (0 = default)")
		flakyPoison  = flag.Float64("flaky-poison-rate", 0, "fault injection: fraction of documents that fail every attempt")
		flakySeed    = flag.Int64("flaky-seed", 0, "fault injection: schedule seed (0 = run seed)")

		extractTimeout = flag.Duration("extract-timeout", 0, "resilience: per-attempt extraction timeout (0 = default)")
		extractRetries = flag.Int("extract-retries", 0, "resilience: max extraction attempts per document (0 = default)")

		profDir    = flag.String("prof-dir", "", "continuous profiling: write CPU windows whose samples carry a pprof phase label, heap/goroutine snapshots, runtime-metrics samples and a JSONL manifest under this directory (inspect with profreport -dir and go tool pprof -tags)")
		profCPUWin = flag.Duration("prof-cpu-window", 10*time.Second, "continuous profiling: CPU profile window length; windows rotate on this clock only (0 disables CPU windows)")
		blackboxD  = flag.String("blackbox", "", "flight recorder: keep a bounded ring of recent events in memory and flush postmortem bundles to this directory on worker panic, SLO alert, or SIGQUIT (inspect with profreport -bundle)")

		explainDir = flag.String("explain-dir", "", "model introspection: write weight-drift snapshots, top-ranked score attributions, and detector decision evidence as a JSONL artifact under this directory (inspect with explainreport -dir; live at /model and /explain with -serve)")
		explainTop = flag.Int("explain-top", 0, "model introspection: attribute this many top-ranked documents per (re-)ranking (0 = default)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context: the pipeline drains
	// gracefully and the deferred trace/checkpoint cleanup below still
	// runs, so a Ctrl-C leaves a valid, resumable journal behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rel, err := relation.Parse(*relCode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	opts := adaptiverank.Options{Seed: *seed, SampleSize: *sample, MaxDocs: *maxDocs}
	switch *strategy {
	case "rsvm":
		opts.Strategy = adaptiverank.RSVMIE
	case "bagg":
		opts.Strategy = adaptiverank.BAggIE
	case "random":
		opts.Strategy = adaptiverank.RandomOrder
	default:
		fmt.Fprintf(os.Stderr, "unknown -strategy %q\n", *strategy)
		return 2
	}
	switch *detector {
	case "modc":
		opts.Detector = adaptiverank.ModC
	case "topk":
		opts.Detector = adaptiverank.TopK
	case "windf":
		opts.Detector = adaptiverank.WindF
	case "feats":
		opts.Detector = adaptiverank.FeatS
	case "none":
		opts.Detector = adaptiverank.NoDetector
	default:
		fmt.Fprintf(os.Stderr, "unknown -detector %q\n", *detector)
		return 2
	}

	// The run fingerprint embedded in profiling manifests and postmortem
	// bundles covers every result-affecting option, so the corpus and the
	// fault/resilience configuration must be settled before the
	// observability sinks are assembled.
	if *flakyError > 0 || *flakyPanic > 0 || *flakyHang > 0 || *flakyLatency > 0 || *flakyPoison > 0 {
		fseed := *flakySeed
		if fseed == 0 {
			fseed = *seed
		}
		opts.Flaky = &adaptiverank.FaultInjection{
			Seed: fseed, ErrorRate: *flakyError, PanicRate: *flakyPanic,
			HangRate: *flakyHang, LatencyRate: *flakyLatency, Latency: *flakyDelay,
			PoisonRate: *flakyPoison,
		}
	}
	if *extractTimeout > 0 || *extractRetries > 0 {
		opts.Resilience = &adaptiverank.Resilience{
			AttemptTimeout: *extractTimeout, MaxAttempts: *extractRetries,
		}
	}
	opts.Checkpoint = *checkpoint
	opts.Resume = *resume
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -checkpoint")
		return 2
	}

	fmt.Printf("generating %d documents (seed %d)...\n", *docs, *seed)
	coll, err := adaptiverank.GenerateCorpus(*seed, *docs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ex := adaptiverank.BuiltinExtractor(rel)
	fingerprint := adaptiverank.Fingerprint(coll, ex, opts)
	runID := fmt.Sprintf("%s-%d", time.Now().UTC().Format("20060102-150405"), os.Getpid())

	var reg *obs.Registry
	if *metrics || *serve != "" || *profDir != "" || *blackboxD != "" || *explainDir != "" {
		reg = obs.NewRegistry()
		opts.Metrics = reg
	}

	// Every recorder sink feeds one Tee so the trace file, the live
	// event stream, and the run tracker see identical events.
	var sinks []obs.Recorder
	if *trace != "" {
		ft, err := obs.CreateTrace(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// Flush and close on every exit path; a trace write error makes
		// the process exit non-zero even when the run itself succeeded.
		defer func() {
			if err := ft.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
				if code == 0 {
					code = 1
				}
			} else if code == 0 {
				fmt.Printf("trace written to %s\n", *trace)
			}
		}()
		sinks = append(sinks, ft)
	}
	var stream *obs.StreamRecorder
	var runs *obs.RunTracker
	if *serve != "" {
		stream = obs.NewStreamRecorder(0)
		runs = &obs.RunTracker{}
		sinks = append(sinks, stream, runs)
	}
	var box *blackbox.Ring
	if *blackboxD != "" {
		box, err = blackbox.New(blackbox.Options{
			Dir: *blackboxD, RunID: runID, Fingerprint: fingerprint, Registry: reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		sinks = append(sinks, box)
	}
	var explainer *adaptiverank.Explainer
	if *explainDir != "" {
		explainer, err = adaptiverank.NewExplainer(adaptiverank.ExplainOptions{
			Dir: *explainDir, RunID: runID, Fingerprint: fingerprint,
			Registry: reg, AttribTopN: *explainTop,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		opts.Explain = explainer
		// Flush and fsync the explain artifact on every exit path; a write
		// error surfaces as a non-zero exit like the trace and profiler.
		defer func() {
			if err := explainer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "explain:", err)
				if code == 0 {
					code = 1
				}
			} else {
				fmt.Printf("explain artifact written to %s (inspect with explainreport -dir %s)\n", *explainDir, *explainDir)
			}
		}()
		// The explain sink persists detector-decision evidence from the
		// shared event stream.
		sinks = append(sinks, explainer.Recorder())
	}
	var profiler *prof.Profiler
	if *profDir != "" {
		profiler, err = prof.Start(prof.Options{
			Dir: *profDir, RunID: runID, Fingerprint: fingerprint,
			CPUWindow: *profCPUWin, Registry: reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// Stop profiling and fsync+close the manifest on every exit path —
		// signal-driven ones included — so a cut-short run still leaves a
		// readable profile directory behind.
		defer func() {
			if err := profiler.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				if code == 0 {
					code = 1
				}
			} else {
				fmt.Printf("profiles written to %s (inspect with profreport -dir %s)\n", *profDir, *profDir)
			}
		}()
		sinks = append(sinks, profiler.Recorder())
	}

	// The SLO watchdog wraps the Tee from above: pipeline events flow
	// through it into the sinks, and any alerts it raises follow the same
	// path, so they show up in the trace file, the SSE stream, and /alerts
	// uniformly.
	wopts := obs.WatchdogOptions{
		MinRecallSlope: *sloSlope, MaxFireRate: *sloFire, MaxStepP99: *sloP99, MaxFaultRate: *sloFault,
		RecallWindow: *sloWin, FireWindow: *sloWin, LatencyWindow: *sloWin, FaultWindow: *sloWin,
	}
	var wd *obs.Watchdog
	if len(sinks) > 0 || wopts.Enabled() {
		var rec obs.Recorder
		if len(sinks) > 0 {
			rec = obs.Tee(sinks...)
		}
		if wopts.Enabled() {
			wd = obs.Watch(rec, wopts)
			rec = wd
		}
		opts.Recorder = rec
	}

	if *serve != "" {
		srvOpts := obs.ServerOptions{Registry: reg, Stream: stream, Runs: runs, Watchdog: wd}
		if box != nil {
			srvOpts.Blackbox = box.Handler()
		}
		if *profDir != "" {
			srvOpts.Profiles = prof.DirHandler(*profDir)
		}
		if explainer != nil {
			srvOpts.Explain = explainer.Handler()
		}
		srv := obs.NewServer(srvOpts)
		addr, err := srv.Start(*serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer srv.Close()
		fmt.Printf("observability server on http://%s (/metrics /events /runs /alerts /healthz /debug/pprof /debug/blackbox /profiles /model /explain)\n", addr)
	}

	// SIGQUIT is the operator's postmortem trigger: flush a black-box
	// bundle (when armed), then cancel the run context so the pipeline
	// drains and every deferred close above — trace fsync, profiling
	// manifest fsync — runs before the process exits through run().
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()
	sigq := make(chan os.Signal, 1)
	signal.Notify(sigq, syscall.SIGQUIT)
	defer signal.Stop(sigq)
	go func() {
		for range sigq {
			if box != nil {
				if dir, err := box.Dump(obs.DumpReasonSignal); err != nil {
					fmt.Fprintln(os.Stderr, "blackbox:", err)
				} else {
					fmt.Fprintf(os.Stderr, "SIGQUIT: postmortem bundle written to %s\n", dir)
				}
			}
			cancelRun()
		}
	}()

	fmt.Printf("extracting %s with %s + %s...\n", rel.Name(), *strategy, *detector)

	res, err := adaptiverank.RunContext(runCtx, coll, ex, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if box != nil {
		if bundles, err := blackbox.Bundles(*blackboxD); err == nil && len(bundles) > 0 {
			fmt.Fprintf(os.Stderr, "postmortem: %d bundle(s) in %s (inspect with profreport -bundle %s/%s)\n",
				len(bundles), *blackboxD, *blackboxD, bundles[len(bundles)-1])
		}
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, "--- metrics ---")
		if err := reg.Dump(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
		}
	}
	if wd != nil {
		if alerts := wd.Alerts(); len(alerts) > 0 {
			fmt.Fprintf(os.Stderr, "--- SLO alerts (%d) ---\n", len(alerts))
			for _, a := range alerts {
				fmt.Fprintf(os.Stderr, "  doc %d [%s] %s\n", a.Docs, a.Rule, a.Message)
			}
		}
	}

	fmt.Printf("\nprocessed %d documents, %d useful, %d distinct tuples, %d model updates\n",
		res.DocsProcessed, res.UsefulFound, len(res.Tuples), res.Updates)
	if len(res.Skipped) > 0 || res.Requeued > 0 {
		fmt.Printf("fault tolerance: %d documents skipped, %d requeued\n", len(res.Skipped), res.Requeued)
	}
	fmt.Printf("ranking overhead: %v (%.3f ms/doc)\n", res.RankingOverhead,
		float64(res.RankingOverhead.Microseconds())/1000/float64(max(1, res.DocsProcessed)))
	n := len(res.Tuples)
	if n > 10 {
		n = 10
	}
	fmt.Println("\nfirst tuples:")
	for _, t := range res.Tuples[:n] {
		fmt.Printf("  %v\n", t)
	}

	if *resultOut != "" {
		if err := writeResult(*resultOut, res); err != nil {
			fmt.Fprintln(os.Stderr, "result-out:", err)
			return 1
		}
		fmt.Printf("result written to %s\n", *resultOut)
	}
	if res.Interrupted {
		fmt.Printf("\ninterrupted: run stopped early by signal")
		if *checkpoint != "" {
			fmt.Printf("; resume with -checkpoint %s -resume", *checkpoint)
		}
		fmt.Println()
		return 130
	}
	return 0
}

// writeResult dumps the run outcome as deterministic JSON. The CI
// kill-and-resume smoke test diffs these files byte-for-byte between an
// uninterrupted run and a killed-then-resumed one.
func writeResult(path string, res *adaptiverank.Result) error {
	type out struct {
		DocsProcessed int                  `json:"docs_processed"`
		UsefulFound   int                  `json:"useful_found"`
		Updates       int                  `json:"updates"`
		Interrupted   bool                 `json:"interrupted"`
		Requeued      int                  `json:"requeued"`
		Skipped       []adaptiverank.DocID `json:"skipped,omitempty"`
		Order         []adaptiverank.DocID `json:"order"`
		Tuples        []adaptiverank.Tuple `json:"tuples"`
	}
	b, err := json.MarshalIndent(out{
		DocsProcessed: res.DocsProcessed,
		UsefulFound:   res.UsefulFound,
		Updates:       res.Updates,
		Interrupted:   res.Interrupted,
		Requeued:      res.Requeued,
		Skipped:       res.Skipped,
		Order:         res.Order,
		Tuples:        res.Tuples,
	}, "", "  ")
	if err != nil {
		return err
	}
	// Atomic: the CI smoke tests and the crash harness diff result files
	// byte-for-byte, so a half-written result after a kill would read as
	// a spurious mismatch instead of "no result yet".
	return durable.WriteFileAtomic(nil, path, append(b, '\n'), 0o644, "result")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
