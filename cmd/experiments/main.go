// Command experiments regenerates every table and figure of the paper's
// evaluation section over the synthetic corpus and prints them in paper
// order. Use -list to see experiment ids, -run to select a subset, and
// -scale test|bench to trade fidelity for speed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adaptiverank/internal/durable"
	"adaptiverank/internal/experiments"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/blackbox"
	"adaptiverank/internal/obs/explain"
	"adaptiverank/internal/obs/prof"
)

func main() {
	// Arm a chaos kill point when cmd/crashtest asked for one; a no-op
	// in every normal run.
	durable.ArmFromEnv()
	os.Exit(run())
}

// run returns the process exit code so deferred cleanup (trace flush +
// close, server shutdown) executes on every exit path, including suite
// errors — os.Exit in main would skip it.
func run() (code int) {
	var (
		scale    = flag.String("scale", "bench", "experiment scale: bench (paper-shape) or test (fast smoke)")
		runSel   = flag.String("run", "", "comma-separated experiment ids (default: all)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		runs     = flag.Int("runs", 0, "override repetitions per configuration")
		seed     = flag.Int64("seed", 0, "override corpus seed")
		trace    = flag.String("trace", "", "write a JSONL event trace of every pipeline run to this file (convert with obsreport -chrome)")
		metrics  = flag.Bool("metrics", false, "dump metrics aggregated across all runs (expvar-style text) to stderr on exit")
		serve    = flag.String("serve", "", "serve /metrics (Prometheus), /events (SSE), /runs, /alerts, /healthz and /debug/pprof on this address during the suite (e.g. localhost:6060)")
		sloSlope = flag.Float64("slo-min-recall-slope", 0, "SLO watchdog: alert when useful-docs-per-document over the trailing window falls below this floor (0 = rule off)")
		sloFire  = flag.Float64("slo-max-fire-rate", 0, "SLO watchdog: alert when the detector fire rate over the trailing window exceeds this ceiling (0 = rule off)")
		sloP99   = flag.Duration("slo-max-p99", 0, "SLO watchdog: alert when the p99 per-document step latency exceeds this bound (0 = rule off)")
		sloWin   = flag.Int("slo-window", 0, "SLO watchdog: override the rules' trailing-window sizes (0 = per-rule defaults)")
		sloFault = flag.Float64("slo-max-fault-rate", 0, "SLO watchdog: alert when the extraction fault rate over the trailing window exceeds this ceiling (0 = rule off)")
		labelDir = flag.String("label-cache", "", "checkpoint whole-collection oracle labels as journal files in this directory; a restarted suite reloads them instead of re-extracting")

		profDir    = flag.String("prof-dir", "", "continuous profiling: write CPU windows whose samples carry a pprof phase label, heap/goroutine snapshots, runtime-metrics samples and a JSONL manifest under this directory (inspect with profreport -dir and go tool pprof -tags)")
		profCPUWin = flag.Duration("prof-cpu-window", 10*time.Second, "continuous profiling: CPU profile window length; windows rotate on this clock only (0 disables CPU windows)")
		blackboxD  = flag.String("blackbox", "", "flight recorder: keep a bounded ring of recent events in memory and flush postmortem bundles to this directory on worker panic, SLO alert, or SIGQUIT (inspect with profreport -bundle)")

		explainDir = flag.String("explain-dir", "", "model introspection: write weight-drift snapshots, top-ranked score attributions, and detector decision evidence for every pipeline run as a JSONL artifact under this directory (inspect with explainreport -dir; live at /model and /explain with -serve)")
		explainTop = flag.Int("explain-top", 0, "model introspection: attribute this many top-ranked documents per (re-)ranking (0 = default)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the suite context: the current pipeline run
	// drains and the deferred trace flush below still executes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *list {
		for _, item := range experiments.Suite() {
			fmt.Println(item.ID)
		}
		return 0
	}

	var cfg experiments.Config
	switch *scale {
	case "bench":
		cfg = experiments.DefaultConfig()
	case "test":
		cfg = experiments.TestConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q (want bench or test)\n", *scale)
		return 2
	}
	if *runs > 0 {
		cfg.Runs = *runs
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *metrics || *serve != "" || *profDir != "" || *blackboxD != "" || *explainDir != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	cfg.LabelCacheDir = *labelDir

	var sinks []obs.Recorder
	if *trace != "" {
		ft, err := obs.CreateTrace(*trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// Flush and close on every exit path; a trace write error makes
		// the process exit non-zero even when the suite succeeded.
		defer func() {
			if err := ft.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "trace:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
		sinks = append(sinks, ft)
	}
	var stream *obs.StreamRecorder
	var runTracker *obs.RunTracker
	if *serve != "" {
		stream = obs.NewStreamRecorder(0)
		runTracker = &obs.RunTracker{}
		sinks = append(sinks, stream, runTracker)
	}

	// Suite identity for profile manifests and postmortem bundles: there
	// is no single run fingerprint across a suite, so the configuration
	// summary stands in for it.
	suiteID := fmt.Sprintf("%s-%d", time.Now().UTC().Format("20060102-150405"), os.Getpid())
	suiteFP := fmt.Sprintf("experiments/v1 scale=%s runs=%d seed=%d sel=%q", *scale, cfg.Runs, cfg.Seed, *runSel)
	var box *blackbox.Ring
	if *blackboxD != "" {
		var err error
		box, err = blackbox.New(blackbox.Options{
			Dir: *blackboxD, RunID: suiteID, Fingerprint: suiteFP, Registry: cfg.Metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		sinks = append(sinks, box)
	}
	var explainer *explain.Explainer
	if *explainDir != "" {
		var err error
		explainer, err = explain.New(explain.Options{
			Dir: *explainDir, RunID: suiteID, Fingerprint: suiteFP,
			Registry: cfg.Metrics, AttribTopN: *explainTop,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg.Explain = explainer
		// Flush and fsync the explain artifact on every exit path; a write
		// error surfaces as a non-zero exit like the trace and profiler.
		defer func() {
			if err := explainer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "explain:", err)
				if code == 0 {
					code = 1
				}
			} else {
				fmt.Fprintf(os.Stderr, "explain artifact written to %s (inspect with explainreport -dir %s)\n", *explainDir, *explainDir)
			}
		}()
		sinks = append(sinks, explainer.Recorder())
	}
	var profiler *prof.Profiler
	if *profDir != "" {
		var err error
		profiler, err = prof.Start(prof.Options{
			Dir: *profDir, RunID: suiteID, Fingerprint: suiteFP,
			CPUWindow: *profCPUWin, Registry: cfg.Metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// Stop profiling and fsync+close the manifest on every exit path —
		// signal-driven ones included.
		defer func() {
			if err := profiler.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				if code == 0 {
					code = 1
				}
			} else {
				fmt.Fprintf(os.Stderr, "profiles written to %s (inspect with profreport -dir %s)\n", *profDir, *profDir)
			}
		}()
		sinks = append(sinks, profiler.Recorder())
	}

	// The SLO watchdog wraps the Tee from above so alerts flow into every
	// sink exactly like pipeline events (see cmd/adaptiverank). Across a
	// suite the watchdog resets its windows at each run-started event, so
	// per-run statistics never bleed between experiment configurations.
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
		cfg.Recorder = rec
	}

	if *serve != "" {
		srvOpts := obs.ServerOptions{Registry: cfg.Metrics, Stream: stream, Runs: runTracker, Watchdog: wd}
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
		fmt.Fprintf(os.Stderr, "observability server on http://%s (/metrics /events /runs /alerts /healthz /debug/pprof /debug/blackbox /profiles)\n", addr)
	}

	// SIGQUIT: flush a black-box bundle (when armed), then cancel the
	// suite so the deferred trace and manifest closes run before exit.
	suiteCtx, cancelSuite := context.WithCancel(ctx)
	defer cancelSuite()
	cfg.Ctx = suiteCtx
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
			cancelSuite()
		}
	}()

	var ids []string
	if *runSel != "" {
		ids = strings.Split(*runSel, ",")
	}

	start := time.Now()
	env := experiments.NewEnv(cfg)
	if err := experiments.RunSuite(env, os.Stdout, ids...); err != nil {
		if suiteCtx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted: suite stopped by signal; completed label checkpoints are kept")
			return 130
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, "--- metrics ---")
		if err := cfg.Metrics.Dump(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "metrics:", err)
		}
	}
	if wd != nil {
		if alerts := wd.Alerts(); len(alerts) > 0 {
			fmt.Fprintf(os.Stderr, "--- SLO alerts (%d) ---\n", len(alerts))
			for _, a := range alerts {
				fmt.Fprintf(os.Stderr, "  run %d doc %d [%s] %s\n", a.Run, a.Docs, a.Rule, a.Message)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "completed in %v\n", time.Since(start).Round(time.Second))
	return 0
}
