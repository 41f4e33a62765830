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
	"adaptiverank/internal/obs/sinks"
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
		labelDir = flag.String("label-cache", "", "checkpoint whole-collection oracle labels as journal files in this directory; a restarted suite reloads them instead of re-extracting")
	)
	obsFlags := sinks.Register(flag.CommandLine)
	flag.Parse()

	// SIGINT/SIGTERM cancel the suite context: the current pipeline run
	// drains and the deferred sink close below still executes.
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
	cfg.LabelCacheDir = *labelDir

	// There is no single run fingerprint across a suite, so the
	// configuration summary stands in for it in artifact headers.
	suiteFP := fmt.Sprintf("experiments/v1 scale=%s runs=%d seed=%d sel=%q", *scale, cfg.Runs, cfg.Seed, *runSel)
	obsSinks, err := sinks.Open(ctx, *obsFlags, "", suiteFP, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer func() { code = obsSinks.Close(code) }()
	cfg.Metrics, cfg.Recorder, cfg.Explain, cfg.Ctx = obsSinks.Registry, obsSinks.Recorder, obsSinks.Explainer, obsSinks.Ctx

	var ids []string
	if *runSel != "" {
		ids = strings.Split(*runSel, ",")
	}

	start := time.Now()
	env := experiments.NewEnv(cfg)
	if err := experiments.RunSuite(env, os.Stdout, ids...); err != nil {
		if obsSinks.Ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "interrupted: suite stopped by signal; completed label checkpoints are kept")
			return 130
		}
		fmt.Fprintln(os.Stderr, "error:", err)
		return 1
	}
	obsSinks.Report(os.Stderr)
	fmt.Fprintf(os.Stderr, "completed in %v\n", time.Since(start).Round(time.Second))
	return 0
}
