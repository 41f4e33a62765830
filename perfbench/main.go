// Command perfbench is the repository's end-to-end benchmark. It runs one
// adaptive-run workload over corpora generated from --seed, checks every
// run's output, and prints its metrics as the last line of standard
// output: the end-to-end metrics with --trace 0, or, with --trace 1, the
// per-layer metrics of one more run traced from outside the program.
// README.md describes the workloads and metrics; run it through run.sh,
// which builds it first:
//
//	bash perfbench/run.sh --workload live-rsvm-modc --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adaptiverank"
	"adaptiverank/internal/corpus"
	"adaptiverank/internal/pipeline"
	"adaptiverank/internal/update"
)

const (
	// deadline bounds a whole invocation; runs still going then are
	// interrupted and count as failed.
	deadline = 150 * time.Second
	// Each seed yields this many corpora of this many documents; one
	// corpus is not a steady input (README.md, Inputs).
	corpusDocs = 9000
	numCorpora = 5
	// setupRuns counts set-up timings: this process plus child processes.
	setupRuns = 3
)

// spansDir receives the traced run's spans.
var spansDir = filepath.Join(".bench_build", "spans")

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed the corpora are generated from")
	seconds := fs.Float64("seconds", 20, "how long to repeat the timed rounds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics of a traced run")
	setupOnly := fs.Bool("setup-only", false, "time one set-up and print it in seconds (used by the child processes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d)\n", *name, *trace)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if *setupOnly {
		secs, err := timeSetUp(ctx, w, *seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(secs, 'g', -1, 64))
		return 0
	}
	res, err := bench(ctx, config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		docs: corpusDocs, corpora: numCorpora, setupRuns: setupRuns, spansDir: spansDir, log: stderr})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type config struct {
	w         workload
	seed      int64
	seconds   float64
	trace     bool
	docs      int
	corpora   int
	setupRuns int
	spansDir  string
	log       io.Writer
	// wrapDetector, when set, replaces the traced run's detector after
	// instrumentation.
	wrapDetector func(update.Detector) update.Detector
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// input is one corpus with its set-up state, reference, and the figures
// of the untraced runs over it.
type input struct {
	coll    *corpus.Collection
	prog    program
	ref     *reference
	clock   *recallClock
	want    *digests // the first run's digests
	samples []sample
}

// sample holds one untraced run's end-to-end figures.
type sample struct {
	wall, cpu, recall80, recall80CPU, gcPause time.Duration
	docs                                      int
	alloc                                     uint64
	gcCycles                                  uint32
	auc                                       float64
}

func bench(ctx context.Context, cfg config) (result, error) {
	ins := make([]*input, cfg.corpora)
	for k := range ins {
		coll, err := adaptiverank.GenerateCorpus(corpusSeed(cfg.seed, k), cfg.docs)
		if err != nil {
			return result{}, err
		}
		ins[k] = &input{coll: coll}
	}
	// Set-up is timed on the first corpus, here and in fresh processes.
	var setup []float64
	for k, in := range ins {
		prog, secs, err := setUpCPU(ctx, cfg.w, in.coll)
		if err != nil {
			return result{}, err
		}
		if k == 0 {
			setup = append(setup, secs)
		}
		in.prog = prog
		ref := prog.labels
		if ref == nil {
			if ref, err = pipeline.ComputeLabelsContext(ctx, prog.ex, in.coll); err != nil {
				return result{}, fmt.Errorf("computing reference labels: %w", err)
			}
		}
		in.ref = newReference(ref)
		in.clock = newRecallClock(ref, 0.8)
	}
	for i := 1; i < cfg.setupRuns; i++ {
		s, err := childSetUp(ctx, cfg)
		if err != nil {
			return result{}, err
		}
		setup = append(setup, s)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	fail := func(what string, err error) {
		res.Failed++
		res.Correct = false
		fmt.Fprintf(cfg.log, "perfbench: %s seed %d %s: %v\n", cfg.w.name, cfg.seed, what, err)
	}
	// Rounds repeat while another one still fits in the time given.
	loopStart := time.Now()
	for round := 0; round == 0 || time.Since(loopStart).Seconds()*float64(round+1)/float64(round) <= cfg.seconds; round++ {
		if ctx.Err() != nil {
			break
		}
		for k, in := range ins {
			res.Attempted++
			s, out, err := measure(ctx, cfg.w, in)
			if err == nil {
				var d digests
				if d, err = in.ref.check(out, in.want); in.want == nil {
					in.want = &d
				}
			}
			if err == nil && s.recall80 == 0 {
				err = fmt.Errorf("never reached 80%% recall")
			}
			if err != nil {
				fail(fmt.Sprintf("round %d corpus %d", round, k), err)
				continue
			}
			s.auc = in.ref.rankedAUC(out.order)
			in.samples = append(in.samples, s)
			fmt.Fprintf(cfg.log, "round %d corpus %d: docs %d wall_s %.4f cpu_s %.4f recall80_s %.4f recall80_cpu_s %.4f auc %.4f alloc_mb %.1f\n",
				round, k, s.docs, s.wall.Seconds(), s.cpu.Seconds(), s.recall80.Seconds(), s.recall80CPU.Seconds(), s.auc, float64(s.alloc)/(1<<20))
		}
	}
	var all []sample
	for _, in := range ins {
		if len(in.samples) == 0 {
			return res, nil // every run over this corpus failed; nothing to report
		}
		all = append(all, in.samples...)
	}
	if !cfg.trace {
		e2e := endToEnd(all)
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return result{}, fmt.Errorf("getrusage: %w", err)
		}
		e2e.add("max_rss_mb", "MB", float64(ru.Maxrss)/1024)
		e2e.add("setup_s", "s", median(setup))
		fmt.Fprintf(cfg.log, "wall clock (not bounded): docs_per_s %.1f, time_to_recall80_s %.4f\n",
			e2e.get("docs_per_s"), e2e.get("time_to_recall80_s"))
		res.Metrics = e2e.values()
		return res, nil
	}

	// One traced run over the first corpus.
	in := ins[0]
	res.Attempted++
	copyColl := freshCopy(in.coll)
	runtime.GC()
	tr, err := cfg.w.runTraced(ctx, copyColl, in.prog, in.clock, cfg.wrapDetector)
	if err == nil {
		_, err = in.ref.check(tr.out, in.want) // the untraced runs' digests
	}
	if err != nil {
		fail("traced run", err)
		return res, nil
	}
	if cfg.spansDir != "" {
		if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := writeSpans(path, tr.spans); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	wall0 := medianOf(in.samples, func(s sample) float64 { return s.wall.Seconds() })
	layers := layerMetrics(tr, wall0)
	layers.add("runtime.gc_cycles", "count", medianOf(all, func(s sample) float64 { return float64(s.gcCycles) }))
	layers.add("runtime.gc_pause_s", "s", medianOf(all, func(s sample) float64 { return s.gcPause.Seconds() }))
	layers.report(cfg.log, cfg.w.name)
	res.Metrics = layers.values()
	return res, nil
}

// measure performs one untraced run over a fresh copy of the input's corpus.
func measure(ctx context.Context, w workload, in *input) (sample, runOutput, error) {
	c := freshCopy(in.coll)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := in.clock.begin(); err != nil {
		return sample{}, runOutput{}, err
	}
	out, err := w.runUntraced(ctx, c, in.prog, in.clock)
	wall := time.Since(in.clock.start)
	if err != nil {
		return sample{}, runOutput{}, err
	}
	cpu, err := processCPU()
	if err == nil {
		err = in.clock.err
	}
	if err != nil {
		return sample{}, runOutput{}, err
	}
	runtime.ReadMemStats(&m1)
	return sample{wall: wall, cpu: cpu - in.clock.startCPU, recall80: in.clock.reached,
		recall80CPU: in.clock.reachedCPU, docs: out.docs,
		alloc: m1.TotalAlloc - m0.TotalAlloc, gcCycles: m1.NumGC - m0.NumGC,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)}, out, nil
}

// setUpCPU sets the workload up over coll and returns the program and the
// CPU seconds the set-up took.
func setUpCPU(ctx context.Context, w workload, coll *corpus.Collection) (program, float64, error) {
	runtime.GC() // finish the input generation's garbage before timing
	start, err := processCPU()
	if err != nil {
		return program{}, 0, err
	}
	prog, err := w.setUp(ctx, coll)
	if err != nil {
		return program{}, 0, err
	}
	end, err := processCPU()
	return prog, (end - start).Seconds(), err
}

// timeSetUp generates the first corpus of a seed (untimed; live
// workloads' set-up does not read it) and times one set-up over it.
func timeSetUp(ctx context.Context, w workload, seed int64) (float64, error) {
	var coll *corpus.Collection
	if !w.live {
		var err error
		if coll, err = adaptiverank.GenerateCorpus(corpusSeed(seed, 0), corpusDocs); err != nil {
			return 0, err
		}
	}
	_, secs, err := setUpCPU(ctx, w, coll)
	return secs, err
}

// childSetUp times one set-up in a fresh process, the way a user pays it.
func childSetUp(ctx context.Context, cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", cfg.w.name,
		"--seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = cfg.log
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// metricList is an ordered list of named metrics.
type metricList struct {
	names   []string
	metrics map[string]metric
}

func (l *metricList) add(name, unit string, v float64) {
	if l.metrics == nil {
		l.metrics = map[string]metric{}
	}
	l.names = append(l.names, name)
	l.metrics[name] = metric{Value: v, Unit: unit}
}

func (l *metricList) get(name string) float64 { return l.metrics[name].Value }

// values returns the metrics to print, leaving out the figures with an
// empty unit, which only the layer table shows.
func (l *metricList) values() map[string]metric {
	out := map[string]metric{}
	for _, n := range l.names {
		if m := l.metrics[n]; m.Unit != "" {
			out[n] = m
		}
	}
	return out
}

// endToEnd folds the untraced runs into the end-to-end metrics. Each is
// the median over every run of every corpus, so a burst of load on the
// machine that slows one or two runs does not move it. The wall-clock
// figures carry no unit: host steal moves them too much to bound
// (README.md, Noise), so only the log shows them.
func endToEnd(all []sample) *metricList {
	med := func(f func(s sample) float64) float64 { return medianOf(all, f) }
	l := &metricList{}
	l.add("cpu_us_per_doc", "us", med(func(s sample) float64 { return s.cpu.Seconds() * 1e6 / float64(s.docs) }))
	l.add("cpu_to_recall80_s", "s", med(func(s sample) float64 { return s.recall80CPU.Seconds() }))
	l.add("docs_per_s", "", med(func(s sample) float64 { return float64(s.docs) / s.wall.Seconds() }))
	l.add("time_to_recall80_s", "", med(func(s sample) float64 { return s.recall80.Seconds() }))
	l.add("ranked_auc", "ratio", med(func(s sample) float64 { return s.auc }))
	l.add("alloc_kb_per_doc", "KB", med(func(s sample) float64 { return float64(s.alloc) / 1024 / float64(s.docs) }))
	return l
}

func medianOf(samples []sample, f func(sample) float64) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = f(s)
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
