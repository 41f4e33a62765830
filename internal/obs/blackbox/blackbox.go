// Package blackbox is the postmortem flight recorder: an always-on,
// fixed-size ring of recent obs events, the last-K detector decisions,
// and the active-span stack, held in memory at a cost low enough to
// leave enabled on every run. When the process hits something worth an
// autopsy — a recovered worker panic, a panic absorbed by the
// resilience layer, an SLO watchdog alert, or an operator SIGQUIT —
// the recorder flushes a postmortem bundle (ring contents, full
// goroutine dump, metrics and runtime snapshots, and the run's
// config/corpus fingerprint) to a crash directory.
//
// The recorder is a Tee sink, like the trace file: it observes the
// stamped event stream and never mutates it, so enabling the black box
// cannot perturb the byte-identical trace contract. Because the whole
// recorder chain is synchronous, automatic dumps run on the goroutine
// that hit the trigger — the goroutine dump in a worker-panic bundle
// shows the panicking worker still inside the pipeline's recovery
// site.
package blackbox

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"adaptiverank/internal/durable"
	"adaptiverank/internal/obs"
)

// Options configures New.
type Options struct {
	// Dir is the crash directory bundles are written to; created if
	// absent. Required.
	Dir string
	// RunID and Fingerprint identify the run in bundle metadata; the
	// fingerprint is the same config/corpus digest the resume journal
	// binds to.
	RunID       string
	Fingerprint string
	// Registry receives the blackbox.* counters and is snapshotted into
	// each bundle (nil is fine).
	Registry *obs.Registry
	// FS is the filesystem bundles are written through; nil selects the
	// real one. Tests inject fault schedules (durable/faultfs) here.
	FS durable.FS
}

// The recorder's bounds. ringSize bounds the event ring (drop-oldest),
// and keptDecisions the detector-decision tail kept alongside it.
// maxBundles caps automatically triggered bundles per process, so a
// fault storm cannot fill the disk; explicit Dump calls are exempt.
const (
	ringSize      = 4096
	keptDecisions = 64
	maxBundles    = 8
)

type spanInfo struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	T      int64  `json:"t"`
}

// Ring is the flight recorder. It implements obs.Recorder; wire it as
// a Tee sink next to the trace file and stream server.
type Ring struct {
	opts Options

	cEvents  *obs.Counter
	cDropped *obs.Counter
	cDumps   *obs.Counter
	cErrs    *obs.Counter

	mu        sync.Mutex
	buf       []obs.Event // circular, len == cap once full
	next      int         // write position
	total     int64       // events ever recorded
	seq       int64       // self-stamping fallback (single-sink chains)
	decisions []obs.Event
	spans     map[int64]spanInfo
	autoDumps int

	// dumpMu serializes bundle writes and is never held together with mu.
	dumpMu    sync.Mutex
	bundleSeq int
}

// New creates the crash directory and returns an armed recorder.
func New(opts Options) (*Ring, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("blackbox: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Ring{
		opts:     opts,
		cEvents:  opts.Registry.Counter(obs.MetricBlackboxEvents),
		cDropped: opts.Registry.Counter(obs.MetricBlackboxEventsDropped),
		cDumps:   opts.Registry.Counter(obs.MetricBlackboxDumps),
		cErrs:    opts.Registry.Counter(obs.MetricBlackboxDumpErrors),
		buf:      make([]obs.Event, 0, ringSize),
		spans:    map[int64]spanInfo{},
	}, nil
}

// Enabled reports true: the black box is always listening.
func (r *Ring) Enabled() bool { return true }

// Record appends the event to the ring (dropping the oldest when full),
// tracks open spans and the detector-decision tail, and — when the
// event is a dump trigger — flushes a postmortem bundle before
// returning. Behind a Tee the event arrives stamped; fed directly, the
// ring stamps Seq/T itself, mirroring JSONLRecorder.
func (r *Ring) Record(e obs.Event) {
	r.mu.Lock()
	if e.Seq == 0 {
		r.seq++
		e.Seq = r.seq
	}
	if e.T == 0 {
		e.T = time.Now().UnixNano()
	}
	r.total++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.cDropped.Inc()
	}
	r.next = (r.next + 1) % cap(r.buf)
	switch e.Kind {
	case obs.KindSpanStart:
		r.spans[e.Span] = spanInfo{ID: e.Span, Parent: e.Parent, Name: e.Name, T: e.T}
	case obs.KindSpanEnd:
		delete(r.spans, e.Span)
	case obs.KindDetectorDecision:
		r.decisions = append(r.decisions, e)
		if len(r.decisions) > keptDecisions {
			r.decisions = r.decisions[1:]
		}
	}
	reason := triggerReason(e)
	budget := reason != "" && r.autoDumps < maxBundles
	if budget {
		r.autoDumps++
	}
	r.mu.Unlock()
	r.cEvents.Inc()

	if budget {
		if _, err := r.dump(reason, &e); err != nil {
			r.cErrs.Inc()
		}
	}
}

// triggerReason maps an event to the bundle reason it triggers, or "".
func triggerReason(e obs.Event) string {
	switch {
	case e.Kind == obs.KindWorkerPanic:
		return obs.DumpReasonWorkerPanic
	case e.Kind == obs.KindExtractFault && e.Name == obs.FaultPanic:
		return obs.DumpReasonExtractPanic
	case e.Kind == obs.KindAlert:
		return obs.DumpReasonAlert
	}
	return ""
}

// Dump flushes a bundle on demand (operator signal, shutdown hook).
// It is exempt from the automatic-dump budget.
func (r *Ring) Dump(reason string) (string, error) {
	if reason == "" {
		reason = obs.DumpReasonManual
	}
	dir, err := r.dump(reason, nil)
	if err != nil {
		r.cErrs.Inc()
	}
	return dir, err
}

// state is a consistent copy of the ring taken under the mutex, so the
// bundle writer never does I/O while holding it.
type state struct {
	events    []obs.Event
	decisions []obs.Event
	spans     []spanInfo
	total     int64
	dropped   int64
}

func (r *Ring) snapshot() state {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s state
	s.total = r.total
	if n := len(r.buf); n == cap(r.buf) && n > 0 {
		// Full ring: oldest is at the write position.
		s.events = make([]obs.Event, 0, n)
		s.events = append(s.events, r.buf[r.next:]...)
		s.events = append(s.events, r.buf[:r.next]...)
		s.dropped = r.total - int64(n)
	} else {
		s.events = append(s.events, r.buf...)
	}
	s.decisions = append(s.decisions, r.decisions...)
	for _, si := range r.spans {
		s.spans = append(s.spans, si)
	}
	sort.Slice(s.spans, func(i, j int) bool { return s.spans[i].ID < s.spans[j].ID })
	return s
}
