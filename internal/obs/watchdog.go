package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// The watchdog rule names (RuleRecallSlope, RuleFireRate,
// RuleStepLatency, RuleFaultRate) are declared in names.go with the
// rest of the obs name registry.

// Alert is one SLO violation observed by the Watchdog, retained for the
// /alerts endpoint. The same information is emitted into the event
// stream as a KindAlert event.
type Alert struct {
	// T is the wall-clock time of the violation (Unix nanoseconds).
	T int64 `json:"t"`
	// Run is the 0-based index of the run the violation occurred in.
	Run int `json:"run"`
	// Rule names the violated rule (RuleRecallSlope, ...).
	Rule string `json:"rule"`
	// Value is the observed statistic, Threshold the configured bound.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Docs is the ranked-document position at the violation.
	Docs int `json:"docs"`
	// Message is a human-readable one-liner.
	Message string `json:"message"`
}

// WatchdogOptions configures the SLO rules. A zero threshold disables
// its rule; zero windows take the listed defaults. Each rule only
// evaluates once its window is full, so a run shorter than the window
// never alerts. After an alert a rule stays quiet for as many ranked
// documents as its window holds, so a sustained violation cannot flood
// the stream.
type WatchdogOptions struct {
	// MinRecallSlope is the floor on useful-docs-per-document over the
	// trailing RecallWindow ranked documents (0 disables).
	MinRecallSlope float64
	// RecallWindow is the slope window in documents (default 200).
	RecallWindow int
	// MaxFireRate is the ceiling on the fired fraction over the
	// trailing FireWindow detector decisions (0 disables).
	MaxFireRate float64
	// FireWindow is the fire-rate window in decisions (default 50).
	FireWindow int
	// MaxStepP99 is the ceiling on the p99 per-document step duration
	// over the trailing LatencyWindow documents (0 disables).
	MaxStepP99 time.Duration
	// LatencyWindow is the latency window in documents (default 200).
	LatencyWindow int
	// MaxFaultRate is the ceiling on the faulted fraction over the
	// trailing FaultWindow extraction-attempt outcomes (0 disables).
	MaxFaultRate float64
	// FaultWindow is the fault-rate window in attempt outcomes
	// (default 100).
	FaultWindow int
}

func (o *WatchdogOptions) defaults() {
	if o.RecallWindow <= 0 {
		o.RecallWindow = 200
	}
	if o.FireWindow <= 0 {
		o.FireWindow = 50
	}
	if o.LatencyWindow <= 0 {
		o.LatencyWindow = 200
	}
	if o.FaultWindow <= 0 {
		o.FaultWindow = 100
	}
}

// Enabled reports whether any rule is active.
func (o WatchdogOptions) Enabled() bool {
	return o.MinRecallSlope > 0 || o.MaxFireRate > 0 || o.MaxStepP99 > 0 ||
		o.MaxFaultRate > 0
}

// Watchdog is a Recorder middleware that tails the live event stream,
// folds it into sliding-window health statistics, and emits structured
// KindAlert events into the same stream when a configured threshold is
// crossed. It wraps the downstream recorder (typically the Tee feeding
// the trace file, the SSE stream, and the run tracker), so alerts are
// stamped centrally and appear in every sink exactly like pipeline
// events. Alerts are additionally retained in memory for /alerts.
type Watchdog struct {
	next Recorder
	opts WatchdogOptions

	mu        sync.Mutex
	run       int // 0-based run index (first run-started makes it 0)
	docs      int // ranked documents in the current run
	useful    []bool
	fired     []bool
	lats      []time.Duration
	faults    []bool
	lastAlert map[string]int // rule -> docs position of its last alert
	alerts    []Alert
}

// Watch wraps next with an SLO watchdog. The returned recorder must be
// the one handed to the pipeline: events flow through it into next.
func Watch(next Recorder, opts WatchdogOptions) *Watchdog {
	opts.defaults()
	if next == nil {
		next = Nop()
	}
	return &Watchdog{
		next: next, opts: opts, run: -1,
		lastAlert: make(map[string]int),
	}
}

// Enabled implements Recorder.
func (w *Watchdog) Enabled() bool { return true }

// Record implements Recorder: the event is forwarded downstream first
// (so sinks see pipeline events in pipeline order), then evaluated; any
// resulting alert events follow immediately after their trigger.
func (w *Watchdog) Record(e Event) {
	w.next.Record(e)
	for _, a := range w.observe(e) {
		w.next.Record(Event{
			Kind: KindAlert, Name: a.Rule, Val: a.Value, Limit: a.Threshold,
			N: a.Docs,
		})
	}
}

// observe folds one event into the windows and returns any alerts it
// triggered. Alert events themselves are ignored (the watchdog may be
// fed its own output when recorders are layered).
func (w *Watchdog) observe(e Event) []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch e.Kind {
	case KindRunStarted:
		w.run++
		w.docs = 0
		w.useful = w.useful[:0]
		w.fired = w.fired[:0]
		w.lats = w.lats[:0]
		w.faults = w.faults[:0]
		w.lastAlert = make(map[string]int)
		return nil
	case KindDocExtracted:
		w.docs++
		w.useful = slide(w.useful, e.Useful, w.opts.RecallWindow)
		w.lats = slide(w.lats, e.Dur, w.opts.LatencyWindow)
		w.faults = slide(w.faults, false, w.opts.FaultWindow)
		var out []Alert
		if a := w.checkRecall(); a != nil {
			out = append(out, *a)
		}
		if a := w.checkLatency(); a != nil {
			out = append(out, *a)
		}
		if a := w.checkFaultRate(); a != nil {
			out = append(out, *a)
		}
		return out
	case KindExtractFault:
		w.faults = slide(w.faults, true, w.opts.FaultWindow)
		if a := w.checkFaultRate(); a != nil {
			return []Alert{*a}
		}
	case KindDetectorDecision:
		w.fired = slide(w.fired, e.Fired, w.opts.FireWindow)
		if a := w.checkFireRate(); a != nil {
			return []Alert{*a}
		}
	}
	return nil
}

// slide appends v and drops the head once the window exceeds n.
func slide[T any](win []T, v T, n int) []T {
	win = append(win, v)
	if len(win) > n {
		copy(win, win[1:])
		win = win[:len(win)-1]
	}
	return win
}

func (w *Watchdog) checkRecall() *Alert {
	if w.opts.MinRecallSlope <= 0 || len(w.useful) < w.opts.RecallWindow {
		return nil
	}
	n := 0
	for _, u := range w.useful {
		if u {
			n++
		}
	}
	slope := float64(n) / float64(len(w.useful))
	if slope >= w.opts.MinRecallSlope {
		return nil
	}
	return w.alert(RuleRecallSlope, slope, w.opts.MinRecallSlope, w.opts.RecallWindow,
		fmt.Sprintf("recall slope %.4f useful/doc over last %d docs is below the %.4f floor",
			slope, len(w.useful), w.opts.MinRecallSlope))
}

func (w *Watchdog) checkFireRate() *Alert {
	if w.opts.MaxFireRate <= 0 || len(w.fired) < w.opts.FireWindow {
		return nil
	}
	n := 0
	for _, f := range w.fired {
		if f {
			n++
		}
	}
	rate := float64(n) / float64(len(w.fired))
	if rate <= w.opts.MaxFireRate {
		return nil
	}
	return w.alert(RuleFireRate, rate, w.opts.MaxFireRate, w.opts.FireWindow,
		fmt.Sprintf("detector fired on %.0f%% of the last %d decisions (ceiling %.0f%%)",
			rate*100, len(w.fired), w.opts.MaxFireRate*100))
}

func (w *Watchdog) checkLatency() *Alert {
	if w.opts.MaxStepP99 <= 0 || len(w.lats) < w.opts.LatencyWindow {
		return nil
	}
	sorted := make([]time.Duration, len(w.lats))
	copy(sorted, w.lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (99*len(sorted) + 99) / 100
	if idx > len(sorted) {
		idx = len(sorted)
	}
	p99 := sorted[idx-1]
	if p99 <= w.opts.MaxStepP99 {
		return nil
	}
	return w.alert(RuleStepLatency, p99.Seconds(), w.opts.MaxStepP99.Seconds(), w.opts.LatencyWindow,
		fmt.Sprintf("p99 step latency %v over last %d docs exceeds %v",
			p99, len(w.lats), w.opts.MaxStepP99))
}

func (w *Watchdog) checkFaultRate() *Alert {
	if w.opts.MaxFaultRate <= 0 || len(w.faults) < w.opts.FaultWindow {
		return nil
	}
	n := 0
	for _, f := range w.faults {
		if f {
			n++
		}
	}
	rate := float64(n) / float64(len(w.faults))
	if rate <= w.opts.MaxFaultRate {
		return nil
	}
	return w.alert(RuleFaultRate, rate, w.opts.MaxFaultRate, w.opts.FaultWindow,
		fmt.Sprintf("extraction faulted on %.0f%% of the last %d attempt outcomes (ceiling %.0f%%)",
			rate*100, len(w.faults), w.opts.MaxFaultRate*100))
}

// alert records the violation unless the rule is still cooling down:
// fewer than window ranked documents since its last alert.
func (w *Watchdog) alert(rule string, value, threshold float64, window int, msg string) *Alert {
	if last, ok := w.lastAlert[rule]; ok && w.docs-last < window {
		return nil
	}
	w.lastAlert[rule] = w.docs
	run := w.run
	if run < 0 {
		run = 0 // stream joined mid-run
	}
	a := Alert{
		T: nowUnixNano(), Run: run, Rule: rule,
		Value: value, Threshold: threshold, Docs: w.docs, Message: msg,
	}
	w.alerts = append(w.alerts, a)
	return &a
}

// Alerts returns a snapshot of every alert raised so far, oldest first.
func (w *Watchdog) Alerts() []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Alert, len(w.alerts))
	copy(out, w.alerts)
	return out
}
