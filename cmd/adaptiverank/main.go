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

	"adaptiverank"
	"adaptiverank/internal/durable"
	"adaptiverank/internal/obs/sinks"
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
	)
	obsFlags := sinks.Register(flag.CommandLine)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context: the pipeline drains
	// gracefully and the deferred sink and checkpoint cleanup still
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

	obsSinks, err := sinks.Open(ctx, *obsFlags, "", fingerprint, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Close every sink on every exit path: a sink that fails to close
	// makes the process exit non-zero even when the run itself succeeded.
	defer func() { code = obsSinks.Close(code) }()
	opts.Metrics, opts.Recorder, opts.Explain = obsSinks.Registry, obsSinks.Recorder, obsSinks.Explainer

	fmt.Printf("extracting %s with %s + %s...\n", rel.Name(), *strategy, *detector)

	res, err := adaptiverank.RunContext(obsSinks.Ctx, coll, ex, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	obsSinks.Report(os.Stderr)

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
