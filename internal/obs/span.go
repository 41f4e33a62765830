package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// spanIDs issues process-wide unique span ids. Several Tracers can feed
// one Tee (cmd/experiments runs many pipelines into a shared trace), so
// uniqueness must hold across Tracer instances, not per instance.
var spanIDs atomic.Int64

// Tracer creates Spans and emits their start/end events through a
// Recorder. It carries the current *scope* — the innermost open span —
// so components instrumented independently (rankers, detectors) can
// parent their spans to whatever phase the pipeline is in without the
// pipeline threading span handles through every call.
//
// NewTracer returns nil when the recorder is disabled, and every method
// is safe on a nil receiver (returning nil Spans whose methods no-op),
// so the disabled tracing path allocates nothing. Scope manipulation is
// atomic, but the intended discipline is that one goroutine owns the
// scope stack; spans may be created and ended from other goroutines as
// long as they don't interleave scope changes.
type Tracer struct {
	rec   Recorder
	scope atomic.Pointer[Span]
}

// NewTracer wraps rec, or returns nil (the no-op tracer) when rec is
// nil or disabled.
func NewTracer(rec Recorder) *Tracer {
	if rec == nil || !rec.Enabled() {
		return nil
	}
	return &Tracer{rec: rec}
}

// Enabled reports whether Start creates real spans.
func (t *Tracer) Enabled() bool { return t != nil }

// Scope returns the innermost open span (nil at top level).
func (t *Tracer) Scope() *Span {
	if t == nil {
		return nil
	}
	return t.scope.Load()
}

// ScopeID returns the innermost open span's id, or 0. Components that
// record plain events (detector decisions) stamp them with ScopeID so
// the event ties into the span tree causally, not just temporally.
func (t *Tracer) ScopeID() int64 { return t.Scope().ID() }

// Start opens a span as a child of the current scope and makes it the
// new scope. The returned span must be closed with End; an unclosed
// span leaves only its start event in the trace (exporters synthesize
// an end at the last trace timestamp).
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		t:     t,
		id:    spanIDs.Add(1),
		name:  name,
		start: nowUnixNano(),
	}
	prev := t.scope.Load()
	s.prev = prev
	if prev != nil {
		s.parent = prev.id
	}
	t.scope.Store(s)
	t.rec.Record(Event{Kind: KindSpanStart, Name: name, Span: s.id, Parent: s.parent})
	return s
}

// Span is one timed, attributed node of a run's causal tree. All
// methods are safe on a nil receiver (the disabled-tracing span) and
// End is idempotent.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	start  int64
	prev   *Span // scope to restore on End

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// ID returns the span id (0 for the nil span).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Name returns the span name ("" for the nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr sets a string attribute, overwriting any previous value under
// the same key. It returns the span for chaining.
func (s *Span) SetAttr(key, val string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.setLocked(Attr{Key: key, Str: val})
	s.mu.Unlock()
	return s
}

// SetNum sets a numeric attribute, overwriting any previous value under
// the same key. It returns the span for chaining.
func (s *Span) SetNum(key string, v float64) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.setLocked(Attr{Key: key, Num: v})
	s.mu.Unlock()
	return s
}

func (s *Span) setLocked(a Attr) {
	for i := range s.attrs {
		if s.attrs[i].Key == a.Key {
			s.attrs[i] = a
			return
		}
	}
	s.attrs = append(s.attrs, a)
}

// End closes the span, emitting its end event with the measured
// duration and accumulated attributes. The first End wins; later calls
// are no-ops. If the span is the current scope it is popped, restoring
// the scope that was current at Start; an out-of-order End (a child
// ended after its parent, or ends interleaved across spans) leaves the
// scope untouched, so surrounding spans keep a consistent stack.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()

	s.t.scope.CompareAndSwap(s, s.prev)
	s.t.rec.Record(Event{
		Kind: KindSpanEnd, Name: s.name, Span: s.id, Parent: s.parent,
		Dur: time.Duration(nowUnixNano() - s.start), Attrs: attrs,
	})
}
