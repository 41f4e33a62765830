// Package prof is the continuous-profiling harness: time-rotated CPU
// profile windows whose samples carry a pprof "phase" label,
// heap/allocs/goroutine snapshots at run and phase boundaries, and
// periodic runtime/metrics samples, all captured into
// one directory whose JSONL manifest keys every artifact to run id and
// wall-clock window (snapshots also to phase and span id) — the join
// keys the event trace uses, so profiles line up against spans.
//
// The harness learns phases by listening to the span stream: wire it as
// a Tee sink next to the trace file (Profiler.Recorder), and it sees the
// same KindSpanStart/KindSpanEnd events the trace records. A named
// phase span (sample, train-init, detector-prime, rank, train-update)
// opening sets the recording goroutine's phase label to the span name;
// the gap between phase spans inside an open run is labelled
// obs.ProfPhaseExtract (the document loop), and time outside any run
// obs.ProfPhaseIdle. `go tool pprof -tags` and `-tagfocus=phase=NAME`
// split the CPU windows by phase.
//
// It is a passive observer: it never mutates events, so enabling
// profiling cannot perturb the byte-identical trace contract.
package prof

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"adaptiverank/internal/durable"
	"adaptiverank/internal/obs"
)

// Options configures Start.
type Options struct {
	// Dir is the profile directory; created if absent. Required.
	Dir string
	// RunID labels the manifest header. Defaults to a timestamp-pid id.
	RunID string
	// Fingerprint is the config/corpus fingerprint recorded in the
	// header (the same string the resume journal binds to), so a profile
	// directory is traceable to exactly one configuration.
	Fingerprint string
	// CPUWindow enables rotating CPU profile windows of this length.
	// Zero disables CPU profiling. A window may span several phases; its
	// samples carry the phase label.
	CPUWindow time.Duration
	// MetricsInterval is the runtime/metrics sampling period. Zero means
	// 5s; negative disables sampling.
	MetricsInterval time.Duration
	// Registry receives the prof.* counters (nil is fine).
	Registry *obs.Registry
	// FS is the filesystem every profile artifact is written through;
	// nil selects the real one. Tests inject fault schedules
	// (durable/faultfs) here.
	FS durable.FS
}

// PhaseLabel is the pprof label key whose value names the profile
// phase a CPU sample was taken in.
const PhaseLabel = "phase"

// phaseSpans is the set of span names treated as profile phases.
var phaseSpans = map[string]bool{
	obs.SpanSample:        true,
	obs.SpanTrainInit:     true,
	obs.SpanDetectorPrime: true,
	obs.SpanRank:          true,
	obs.SpanTrainUpdate:   true,
}

// phaseLabels maps every phase value to a context carrying its label
// set, built once so that recording a span event allocates nothing.
var phaseLabels = func() map[string]context.Context {
	m := make(map[string]context.Context)
	label := func(phase string) {
		m[phase] = pprof.WithLabels(context.Background(), pprof.Labels(PhaseLabel, phase))
	}
	for phase := range phaseSpans {
		label(phase)
	}
	label(obs.ProfPhaseExtract)
	label(obs.ProfPhaseIdle)
	return m
}()

type phaseFrame struct {
	id   int64
	name string
}

// Profiler captures profiles into one directory. Create with Start,
// feed span events via Recorder, and Close before reading the results.
type Profiler struct {
	opts Options
	man  *manifestWriter

	cWindows *obs.Counter
	cSnaps   *obs.Counter
	cErrs    *obs.Counter

	met      *durable.JSONL
	metDescs []metricDesc
	metT0    int64

	mu       sync.Mutex
	seq      int
	runDepth int
	phase    phaseFrame // the open phase span; zero between phases
	cpuF     durable.File
	cpuFile  string
	cpuT0    int64
	closed   bool

	stop chan struct{}
	done chan struct{}
}

// Start creates the profile directory, writes the manifest header,
// captures the run-start snapshot set, labels the calling goroutine
// idle, and begins the CPU window and metrics loops.
func Start(opts Options) (*Profiler, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("prof: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	if opts.RunID == "" {
		opts.RunID = fmt.Sprintf("%s-%d", time.Now().UTC().Format("20060102-150405"), os.Getpid())
	}
	if opts.MetricsInterval == 0 {
		opts.MetricsInterval = 5 * time.Second
	}
	man, err := newManifestWriter(opts.FS, opts.Dir, Record{
		RunID:       opts.RunID,
		Fingerprint: opts.Fingerprint,
		Go:          runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, err
	}
	p := &Profiler{
		opts:     opts,
		man:      man,
		cWindows: opts.Registry.Counter(obs.MetricProfCPUWindows),
		cSnaps:   opts.Registry.Counter(obs.MetricProfSnapshots),
		cErrs:    opts.Registry.Counter(obs.MetricProfErrors),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if opts.MetricsInterval > 0 {
		met, err := durable.AppendJSONL(opts.FS, filepath.Join(opts.Dir, "metrics.jsonl"), "prof-metrics")
		if err != nil {
			man.close()
			return nil, err
		}
		p.met = met
		p.metDescs = metricDescs()
		p.metT0 = time.Now().UnixNano()
	}
	pprof.SetGoroutineLabels(phaseLabels[obs.ProfPhaseIdle])
	p.mu.Lock()
	p.snapshotLocked(obs.ProfPhaseIdle, 0, boundarySnapshot)
	if opts.CPUWindow > 0 {
		p.startCPULocked()
	}
	p.mu.Unlock()
	if p.met != nil {
		p.sampleMetrics()
	}
	go p.loop()
	return p, nil
}

// boundarySnapshot is the full set captured at run boundaries.
var boundarySnapshot = []string{obs.ProfArtifactHeap, obs.ProfArtifactAllocs, obs.ProfArtifactGoroutine}

// phaseSnapshot is the cheaper set captured at every phase boundary.
var phaseSnapshot = []string{obs.ProfArtifactHeap, obs.ProfArtifactGoroutine}

// Recorder returns a Tee sink that feeds span events to the profiler.
// It observes and never forwards — add it alongside the other sinks.
func (p *Profiler) Recorder() obs.Recorder { return profRecorder{p} }

type profRecorder struct{ p *Profiler }

func (r profRecorder) Enabled() bool { return true }

func (r profRecorder) Record(e obs.Event) {
	if e.Kind != obs.KindSpanStart && e.Kind != obs.KindSpanEnd {
		return
	}
	if e.Name != obs.SpanRun && !phaseSpans[e.Name] {
		return
	}
	r.p.spanEvent(e)
}

// spanEvent updates the phase state machine and labels the recording
// goroutine with the phase it is now in. Named phase spans get a
// heap+goroutine snapshot when they close, and run spans get the full
// boundary set on open and close. The label moves after the snapshot,
// so a boundary snapshot's cost stays with the phase it closes.
//
// The label lands on the goroutine that records the span event. That is
// right only while this invariant holds: phase spans are started and
// ended on the goroutine that does the phase's work, and goroutines
// started inside a phase (the rank pass's score workers) inherit its
// label. Phase spans never nest inside one another, so a phase ending
// returns the goroutine to extract inside a run and to idle outside one.
// The label set replaces the goroutine's own, so labels a caller set with
// pprof.Do do not survive the first span event.
func (p *Profiler) spanEvent(e obs.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	switch {
	case e.Name == obs.SpanRun && e.Kind == obs.KindSpanStart:
		p.runDepth++
		p.snapshotLocked(obs.SpanRun, e.Span, boundarySnapshot)
	case e.Name == obs.SpanRun && e.Kind == obs.KindSpanEnd:
		if p.runDepth > 0 {
			p.runDepth--
		}
		p.snapshotLocked(obs.SpanRun, e.Span, boundarySnapshot)
	case e.Kind == obs.KindSpanStart:
		p.phase = phaseFrame{id: e.Span, name: e.Name}
	case e.Kind == obs.KindSpanEnd:
		if p.phase.id == e.Span {
			p.phase = phaseFrame{}
		}
		p.snapshotLocked(e.Name, e.Span, phaseSnapshot)
	}
	pprof.SetGoroutineLabels(phaseLabels[p.phaseLocked()])
}

// phaseLocked names the phase the process is in right now.
func (p *Profiler) phaseLocked() string {
	if p.phase.name != "" {
		return p.phase.name
	}
	if p.runDepth > 0 {
		return obs.ProfPhaseExtract
	}
	return obs.ProfPhaseIdle
}

// snapshotLocked captures one profile file per kind, attributed to the
// given phase and span.
func (p *Profiler) snapshotLocked(phase string, span int64, kinds []string) {
	now := time.Now().UnixNano()
	for _, kind := range kinds {
		prof := pprof.Lookup(kind)
		if prof == nil {
			p.cErrs.Inc()
			continue
		}
		p.seq++
		name := fmt.Sprintf("%04d-%s.pb.gz", p.seq, kind)
		f, err := durable.OpenTrunc(p.opts.FS, filepath.Join(p.opts.Dir, name))
		if err != nil {
			p.cErrs.Inc()
			continue
		}
		err = prof.WriteTo(f, 0)
		if scErr := durable.SyncClose(f); err == nil {
			err = scErr
		}
		if err != nil {
			p.cErrs.Inc()
			continue
		}
		p.cSnaps.Inc()
		if err := p.man.append(Record{
			Artifact: kind, File: name, Phase: phase, Span: span, T0: now, T1: now,
		}); err != nil {
			p.cErrs.Inc()
		}
	}
}

// startCPULocked opens the next CPU window. On failure (another CPU
// profile active, disk error) it counts the error and leaves the window
// off; the next rotation retries.
func (p *Profiler) startCPULocked() {
	p.seq++
	name := fmt.Sprintf("%04d-cpu.pb.gz", p.seq)
	f, err := durable.OpenTrunc(p.opts.FS, filepath.Join(p.opts.Dir, name))
	if err != nil {
		p.cErrs.Inc()
		return
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		p.cErrs.Inc()
		return
	}
	p.cpuF = f
	p.cpuFile = name
	p.cpuT0 = time.Now().UnixNano()
}

// stopCPULocked closes the running CPU window and records it in the
// manifest with its wall-clock range.
func (p *Profiler) stopCPULocked() {
	if p.cpuF == nil {
		return
	}
	pprof.StopCPUProfile()
	f := p.cpuF
	p.cpuF = nil
	if err := durable.SyncClose(f); err != nil {
		p.cErrs.Inc()
		return
	}
	p.cWindows.Inc()
	if err := p.man.append(Record{
		Artifact: obs.ProfArtifactCPU, File: p.cpuFile,
		T0: p.cpuT0, T1: time.Now().UnixNano(),
	}); err != nil {
		p.cErrs.Inc()
	}
}

// loop drives the time-based work: CPU window rotation and periodic
// runtime/metrics samples.
func (p *Profiler) loop() {
	defer close(p.done)
	var cpuC, metC <-chan time.Time
	if p.opts.CPUWindow > 0 {
		t := time.NewTicker(p.opts.CPUWindow)
		defer t.Stop()
		cpuC = t.C
	}
	if p.met != nil {
		t := time.NewTicker(p.opts.MetricsInterval)
		defer t.Stop()
		metC = t.C
	}
	for {
		select {
		case <-p.stop:
			return
		case <-cpuC:
			p.mu.Lock()
			if !p.closed {
				p.stopCPULocked()
				p.startCPULocked()
			}
			p.mu.Unlock()
		case <-metC:
			p.sampleMetrics()
		}
	}
}

// Close stops the loops, closes the final CPU window, captures the
// end-of-run snapshot set, and fsyncs the metrics file and manifest.
// It is idempotent and safe to call from postmortem exit paths.
func (p *Profiler) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.done
		return nil
	}
	p.closed = true
	close(p.stop)
	p.stopCPULocked()
	p.snapshotLocked(p.phaseLocked(), p.phase.id, boundarySnapshot)
	p.mu.Unlock()
	<-p.done

	var err error
	if p.met != nil {
		p.sampleMetrics()
		if merr := p.man.append(Record{
			Artifact: obs.ProfArtifactMetrics, File: "metrics.jsonl",
			T0: p.metT0, T1: time.Now().UnixNano(),
		}); err == nil {
			err = merr
		}
		if merr := p.met.Close(); err == nil {
			err = merr
		}
	}
	if merr := p.man.close(); err == nil {
		err = merr
	}
	return err
}

// Dir returns the profile directory.
func (p *Profiler) Dir() string { return p.opts.Dir }
