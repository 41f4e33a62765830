// Package sinks assembles the observability sinks the pipeline CLIs
// share. It declares their flags, opens the trace file, the live event
// stream, the flight recorder, the explainer and the profiler behind one
// tee, wraps the tee in the SLO watchdog, serves them over HTTP, turns
// SIGQUIT into a postmortem, and closes everything in one order with one
// exit-code rule.
package sinks

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/blackbox"
	"adaptiverank/internal/obs/explain"
	"adaptiverank/internal/obs/prof"
)

// Flags holds the observability settings. Register binds them to
// command-line flags; a caller without flags fills one in directly.
type Flags struct {
	Trace   string
	Metrics bool
	Serve   string

	SLOMinRecallSlope float64
	SLOMaxFireRate    float64
	SLOMaxP99         time.Duration
	SLOWindow         int
	SLOMaxFaultRate   float64

	ProfDir       string
	ProfCPUWindow time.Duration
	Blackbox      string
	ExplainDir    string
	ExplainTop    int
}

// Register declares the observability flags on fs and returns the
// values they parse into.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Trace, "trace", "", "write a JSONL event trace of every pipeline run to this file (read it with runreport; runreport -chrome converts it to a Perfetto flame timeline)")
	fs.BoolVar(&f.Metrics, "metrics", false, "dump metrics collected across all pipeline runs (expvar-style text) to stderr on exit")
	fs.StringVar(&f.Serve, "serve", "", "serve /metrics (Prometheus), /events (SSE), /runs, /alerts, /healthz, /debug/pprof, /debug/blackbox, /profiles, /model and /explain on this address while running (e.g. localhost:6060)")
	fs.Float64Var(&f.SLOMinRecallSlope, "slo-min-recall-slope", 0, "SLO watchdog: alert when useful-docs-per-document over the trailing window falls below this floor (0 = rule off)")
	fs.Float64Var(&f.SLOMaxFireRate, "slo-max-fire-rate", 0, "SLO watchdog: alert when the detector fire rate over the trailing window exceeds this ceiling (0 = rule off)")
	fs.DurationVar(&f.SLOMaxP99, "slo-max-p99", 0, "SLO watchdog: alert when the p99 per-document step latency exceeds this bound (0 = rule off)")
	fs.IntVar(&f.SLOWindow, "slo-window", 0, "SLO watchdog: override the rules' trailing-window sizes (0 = per-rule defaults)")
	fs.Float64Var(&f.SLOMaxFaultRate, "slo-max-fault-rate", 0, "SLO watchdog: alert when the extraction fault rate over the trailing window exceeds this ceiling (0 = rule off)")
	fs.StringVar(&f.ProfDir, "prof-dir", "", "continuous profiling: write CPU windows whose samples carry a pprof phase label, heap/goroutine snapshots, runtime-metrics samples and a JSONL manifest under this directory (inspect with runreport DIR and go tool pprof -tags)")
	fs.DurationVar(&f.ProfCPUWindow, "prof-cpu-window", 10*time.Second, "continuous profiling: CPU profile window length; windows rotate on this clock only (0 disables CPU windows)")
	fs.StringVar(&f.Blackbox, "blackbox", "", "flight recorder: keep a bounded ring of recent events in memory and flush postmortem bundles to this directory on worker panic, SLO alert, or SIGQUIT (inspect a bundle with runreport)")
	fs.StringVar(&f.ExplainDir, "explain-dir", "", "model introspection: write weight-drift snapshots, top-ranked score attributions, and detector decision evidence for every pipeline run as a JSONL artifact under this directory (inspect with runreport DIR; live at /model and /explain with -serve)")
	fs.IntVar(&f.ExplainTop, "explain-top", 0, "model introspection: attribute this many top-ranked documents per (re-)ranking (0 = default)")
	return f
}

// Sinks is one process's open observability sinks. The exported fields
// are what a caller hands its pipeline runs; each is nil while its sink
// is off.
type Sinks struct {
	// Registry collects metrics. It exists when -metrics, -serve or an
	// artifact sink is on, since those sinks publish into it.
	Registry *obs.Registry
	// Recorder is the tee of every event sink, wrapped by the SLO
	// watchdog when a rule is on. Every sink sees identical events.
	Recorder obs.Recorder
	// Explainer is the -explain-dir model-introspection substrate.
	Explainer *explain.Explainer
	// Blackbox is the -blackbox flight recorder.
	Blackbox *blackbox.Ring
	// Ctx is the run context: Open's context, also cancelled by SIGQUIT
	// once its postmortem bundle is written. Never nil.
	Ctx context.Context

	flags    Flags
	notices  io.Writer
	trace    *obs.FileRecorder
	profiler *prof.Profiler
	watchdog *obs.Watchdog
	server   *obs.Server
	cancel   context.CancelFunc
	sigq     chan os.Signal
	watched  chan struct{}
}

// Open assembles the sinks f turns on. runID and fingerprint identify
// the run in every artifact header; an empty runID selects a
// timestamp-pid id. Notices of written artifacts and the server address
// go to notices. A failing Open closes what it had already opened and
// returns the error.
func Open(ctx context.Context, f Flags, runID, fingerprint string, notices io.Writer) (_ *Sinks, err error) {
	if runID == "" {
		runID = fmt.Sprintf("%s-%d", time.Now().UTC().Format("20060102-150405"), os.Getpid())
	}
	s := &Sinks{flags: f, notices: notices}
	defer func() {
		if err != nil {
			s.notices = io.Discard
			s.closeSinks(1)
		}
	}()
	if f.Metrics || f.Serve != "" || f.ProfDir != "" || f.Blackbox != "" || f.ExplainDir != "" {
		s.Registry = obs.NewRegistry()
	}
	var tee []obs.Recorder
	if f.Trace != "" {
		if s.trace, err = obs.CreateTrace(f.Trace); err != nil {
			return nil, err
		}
		tee = append(tee, s.trace)
	}
	var stream *obs.StreamRecorder
	var runs *obs.RunTracker
	if f.Serve != "" {
		stream, runs = obs.NewStreamRecorder(), &obs.RunTracker{}
		tee = append(tee, stream, runs)
	}
	if f.Blackbox != "" {
		if s.Blackbox, err = blackbox.New(blackbox.Options{
			Dir: f.Blackbox, RunID: runID, Fingerprint: fingerprint, Registry: s.Registry,
		}); err != nil {
			return nil, err
		}
		tee = append(tee, s.Blackbox)
	}
	if f.ExplainDir != "" {
		if s.Explainer, err = explain.New(explain.Options{
			Dir: f.ExplainDir, RunID: runID, Fingerprint: fingerprint,
			Registry: s.Registry, AttribTopN: f.ExplainTop,
		}); err != nil {
			return nil, err
		}
		// The explain sink persists detector-decision evidence from the
		// shared event stream.
		tee = append(tee, s.Explainer.Recorder())
	}
	if f.ProfDir != "" {
		if s.profiler, err = prof.Start(prof.Options{
			Dir: f.ProfDir, RunID: runID, Fingerprint: fingerprint,
			CPUWindow: f.ProfCPUWindow, Registry: s.Registry,
		}); err != nil {
			return nil, err
		}
		tee = append(tee, s.profiler.Recorder())
	}
	if len(tee) > 0 {
		s.Recorder = obs.Tee(tee...)
	}

	// The SLO watchdog wraps the tee from above: pipeline events flow
	// through it into the sinks, and the alerts it raises follow the same
	// path, so they reach the trace file, the SSE stream and /alerts
	// alike. It resets its windows at every run-started event, so a suite
	// never mixes statistics across runs.
	wopts := obs.WatchdogOptions{
		MinRecallSlope: f.SLOMinRecallSlope, MaxFireRate: f.SLOMaxFireRate,
		MaxStepP99: f.SLOMaxP99, MaxFaultRate: f.SLOMaxFaultRate,
		RecallWindow: f.SLOWindow, FireWindow: f.SLOWindow,
		LatencyWindow: f.SLOWindow, FaultWindow: f.SLOWindow,
	}
	if wopts.Enabled() {
		s.watchdog = obs.Watch(s.Recorder, wopts)
		s.Recorder = s.watchdog
	}

	if f.Serve != "" {
		srvOpts := obs.ServerOptions{Registry: s.Registry, Stream: stream, Runs: runs, Watchdog: s.watchdog}
		if s.Blackbox != nil {
			srvOpts.Blackbox = s.Blackbox.Handler()
		}
		if s.profiler != nil {
			srvOpts.Profiles = prof.DirHandler(f.ProfDir)
		}
		if s.Explainer != nil {
			srvOpts.Explain = s.Explainer.Handler()
		}
		s.server = obs.NewServer(srvOpts)
		var addr string
		if addr, err = s.server.Start(f.Serve); err != nil {
			return nil, err
		}
		fmt.Fprintf(notices, "observability server on http://%s (/metrics /events /runs /alerts /healthz /debug/pprof /debug/blackbox /profiles /model /explain)\n", addr)
	}

	s.Ctx, s.cancel = context.WithCancel(ctx)
	s.sigq = make(chan os.Signal, 1)
	s.watched = make(chan struct{})
	signal.Notify(s.sigq, syscall.SIGQUIT)
	go s.watchSIGQUIT()
	return s, nil
}

// watchSIGQUIT turns SIGQUIT, the operator's postmortem trigger, into a
// flight-recorder bundle when one is armed, then cancels Ctx so the
// pipeline drains and the caller's Close runs before the process exits.
// It returns when Close closes the signal channel.
func (s *Sinks) watchSIGQUIT() {
	defer close(s.watched)
	for range s.sigq {
		if s.Blackbox != nil {
			if dir, err := s.Blackbox.Dump(obs.DumpReasonSignal); err != nil {
				fmt.Fprintln(os.Stderr, "blackbox:", err)
			} else {
				fmt.Fprintf(os.Stderr, "SIGQUIT: postmortem bundle written to %s\n", dir)
			}
		}
		s.cancel()
	}
}

// Close stops the SIGQUIT watcher and waits for it to exit, cancels Ctx,
// shuts the server down, and closes the profiler, the explainer and the
// trace file in that order, noting each written artifact. It returns
// code, or 1 when code is 0 and a sink failed to close: a run whose
// artifacts did not reach the disk must not exit 0.
func (s *Sinks) Close(code int) int {
	signal.Stop(s.sigq)
	close(s.sigq)
	<-s.watched
	s.cancel()
	return s.closeSinks(code)
}

func (s *Sinks) closeSinks(code int) int {
	if s.server != nil {
		s.server.Close()
	}
	closed := func(name string, err error, notice string) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			if code == 0 {
				code = 1
			}
			return
		}
		fmt.Fprintln(s.notices, notice)
	}
	f := s.flags
	if s.profiler != nil {
		closed("prof", s.profiler.Close(),
			fmt.Sprintf("profiles written to %s (inspect with runreport %s)", f.ProfDir, f.ProfDir))
	}
	if s.Explainer != nil {
		closed("explain", s.Explainer.Close(),
			fmt.Sprintf("explain artifact written to %s (inspect with runreport %s)", f.ExplainDir, f.ExplainDir))
	}
	if s.trace != nil {
		closed("trace", s.trace.Close(), "trace written to "+f.Trace)
	}
	return code
}

// Report writes the end-of-run summary to w: the flight-recorder
// bundles on disk, the metrics dump when -metrics is on, and the SLO
// alerts raised.
func (s *Sinks) Report(w io.Writer) {
	if s.Blackbox != nil {
		if bundles, err := blackbox.Bundles(s.flags.Blackbox); err == nil && len(bundles) > 0 {
			fmt.Fprintf(w, "postmortem: %d bundle(s) in %s (inspect with runreport %s/%s)\n",
				len(bundles), s.flags.Blackbox, s.flags.Blackbox, bundles[len(bundles)-1])
		}
	}
	if s.flags.Metrics {
		fmt.Fprintln(w, "--- metrics ---")
		if err := s.Registry.Dump(w); err != nil {
			fmt.Fprintln(w, "metrics:", err)
		}
	}
	if s.watchdog != nil {
		if alerts := s.watchdog.Alerts(); len(alerts) > 0 {
			fmt.Fprintf(w, "--- SLO alerts (%d) ---\n", len(alerts))
			for _, a := range alerts {
				fmt.Fprintf(w, "  run %d doc %d [%s] %s\n", a.Run, a.Docs, a.Rule, a.Message)
			}
		}
	}
}
