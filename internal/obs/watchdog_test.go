package obs

import (
	"testing"
	"time"
)

// feedDocs pushes n doc-extracted events with the given usefulness and
// per-document duration through the watchdog.
func feedDocs(w *Watchdog, n int, useful bool, dur time.Duration) {
	for i := 0; i < n; i++ {
		w.Record(Event{Kind: KindDocExtracted, Useful: useful, Dur: dur})
	}
}

func alertEvents(mem *MemRecorder) []Event {
	var out []Event
	for _, e := range mem.Events() {
		if e.Kind == KindAlert {
			out = append(out, e)
		}
	}
	return out
}

func TestWatchdogRecallSlopeRule(t *testing.T) {
	mem := &MemRecorder{}
	w := Watch(mem, WatchdogOptions{MinRecallSlope: 0.2, RecallWindow: 10})
	w.Record(Event{Kind: KindRunStarted})

	// Window not yet full: no alert even though recall is zero.
	feedDocs(w, 9, false, 0)
	if n := len(w.Alerts()); n != 0 {
		t.Fatalf("alerts before the window fills = %d, want 0", n)
	}
	// Tenth useless doc fills the window with slope 0 < 0.2.
	feedDocs(w, 1, false, 0)
	alerts := w.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	a := alerts[0]
	if a.Rule != RuleRecallSlope || a.Value != 0 || a.Threshold != 0.2 || a.Docs != 10 || a.Run != 0 {
		t.Errorf("alert fields wrong: %+v", a)
	}
	if a.Message == "" || a.T == 0 {
		t.Errorf("alert must carry message and timestamp: %+v", a)
	}

	// The alert must also have been emitted downstream as a KindAlert
	// event, after its triggering doc event.
	evs := alertEvents(mem)
	if len(evs) != 1 {
		t.Fatalf("alert events downstream = %d, want 1", len(evs))
	}
	if evs[0].Name != RuleRecallSlope || evs[0].Limit != 0.2 || evs[0].N != 10 {
		t.Errorf("alert event wrong: %+v", evs[0])
	}

	// A healthy window (all useful) must not alert.
	feedDocs(w, 10, true, 0)
	if n := len(w.Alerts()); n != 1 {
		t.Errorf("healthy window alerted: %d alerts", n)
	}
}

func TestWatchdogFireRateRule(t *testing.T) {
	mem := &MemRecorder{}
	w := Watch(mem, WatchdogOptions{MaxFireRate: 0.5, FireWindow: 4})
	w.Record(Event{Kind: KindRunStarted})

	for i := 0; i < 4; i++ {
		w.Record(Event{Kind: KindDetectorDecision, Fired: i%2 == 1})
	}
	// Window [f,t,f,t]: 2/4 fired = 0.5, not above the ceiling.
	if n := len(w.Alerts()); n != 0 {
		t.Fatalf("rate at the ceiling alerted: %d", n)
	}
	w.Record(Event{Kind: KindDetectorDecision, Fired: true})
	// Sliding drops the head: [t,f,t,t] = 3/4 fired.
	alerts := w.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != RuleFireRate {
		t.Fatalf("alerts = %+v, want one fire-rate alert", alerts)
	}
	if alerts[0].Value != 0.75 {
		t.Errorf("rate = %g, want 0.75", alerts[0].Value)
	}
}

func TestWatchdogLatencyRule(t *testing.T) {
	mem := &MemRecorder{}
	w := Watch(mem, WatchdogOptions{MaxStepP99: 10 * time.Millisecond, LatencyWindow: 10})
	w.Record(Event{Kind: KindRunStarted})

	feedDocs(w, 9, false, time.Millisecond)
	feedDocs(w, 1, false, 50*time.Millisecond) // p99 over the 10-doc window = 50ms
	alerts := w.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != RuleStepLatency {
		t.Fatalf("alerts = %+v, want one latency alert", alerts)
	}
	if alerts[0].Value != (50 * time.Millisecond).Seconds() {
		t.Errorf("p99 = %g s, want 0.05", alerts[0].Value)
	}
}

func TestWatchdogCooldown(t *testing.T) {
	w := Watch(&MemRecorder{}, WatchdogOptions{MinRecallSlope: 0.5, RecallWindow: 4})
	w.Record(Event{Kind: KindRunStarted})
	feedDocs(w, 12, false, 0)
	// Violations at docs 4..12, but after each alert the rule cools down
	// for its 4-doc window: next eligible at docs 8 and 12.
	alerts := w.Alerts()
	if len(alerts) != 3 {
		t.Fatalf("alerts = %d, want 3 (cooldown must suppress the rest)", len(alerts))
	}
	if alerts[0].Docs != 4 || alerts[1].Docs != 8 || alerts[2].Docs != 12 {
		t.Errorf("alert positions = %d,%d,%d, want 4,8,12", alerts[0].Docs, alerts[1].Docs, alerts[2].Docs)
	}
}

func TestWatchdogRunReset(t *testing.T) {
	w := Watch(&MemRecorder{}, WatchdogOptions{MinRecallSlope: 0.5, RecallWindow: 4})
	w.Record(Event{Kind: KindRunStarted})
	feedDocs(w, 3, false, 0)
	// New run: the window and cooldowns restart; 3 more useless docs must
	// not complete a window across the boundary.
	w.Record(Event{Kind: KindRunStarted})
	feedDocs(w, 3, false, 0)
	if n := len(w.Alerts()); n != 0 {
		t.Fatalf("window leaked across runs: %d alerts", n)
	}
	feedDocs(w, 1, false, 0)
	alerts := w.Alerts()
	if len(alerts) != 1 || alerts[0].Run != 1 || alerts[0].Docs != 4 {
		t.Fatalf("alerts = %+v, want one alert in run 1 at doc 4", alerts)
	}
}

func TestWatchdogForwardsAllEvents(t *testing.T) {
	mem := &MemRecorder{}
	w := Watch(mem, WatchdogOptions{MinRecallSlope: 0.5, RecallWindow: 2})
	w.Record(Event{Kind: KindRunStarted})
	feedDocs(w, 2, false, 0)
	w.Record(Event{Kind: KindRunFinished})

	evs := mem.Events()
	// 4 forwarded + 1 alert, with the alert immediately after its trigger.
	if len(evs) != 5 {
		t.Fatalf("downstream events = %d, want 5", len(evs))
	}
	if evs[2].Kind != KindDocExtracted || evs[3].Kind != KindAlert || evs[4].Kind != KindRunFinished {
		t.Errorf("alert must directly follow its trigger: %v %v %v", evs[2].Kind, evs[3].Kind, evs[4].Kind)
	}
}

func TestWatchdogDisabledRulesAndNilNext(t *testing.T) {
	var o WatchdogOptions
	if o.Enabled() {
		t.Error("zero options must be disabled")
	}
	// Watch with nil next must not panic on Record.
	w := Watch(nil, WatchdogOptions{MaxFireRate: 0.1, FireWindow: 1})
	w.Record(Event{Kind: KindRunStarted})
	w.Record(Event{Kind: KindDetectorDecision, Fired: true})
	if len(w.Alerts()) != 1 {
		t.Error("watchdog must work without a downstream recorder")
	}
}

func TestWatchdogFaultRateRule(t *testing.T) {
	mem := &MemRecorder{}
	w := Watch(mem, WatchdogOptions{MaxFaultRate: 0.3, FaultWindow: 10})
	w.Record(Event{Kind: KindRunStarted})

	// 7 clean docs + 3 faults: rate 0.3 == ceiling, no alert yet.
	feedDocs(w, 7, true, 0)
	for i := 0; i < 3; i++ {
		w.Record(Event{Kind: KindExtractFault, Doc: int64(i), Name: "error"})
	}
	if n := len(w.Alerts()); n != 0 {
		t.Fatalf("alerts at rate == ceiling = %d, want 0", n)
	}
	// One more fault slides a clean outcome out: rate 0.4 > 0.3.
	w.Record(Event{Kind: KindExtractFault, Doc: 9, Name: "panic"})
	alerts := w.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	a := alerts[0]
	if a.Rule != RuleFaultRate || a.Threshold != 0.3 {
		t.Errorf("alert fields wrong: %+v", a)
	}
	if a.Value <= 0.3 || a.Value > 1 {
		t.Errorf("alert value = %v, want in (0.3, 1]", a.Value)
	}
	if evs := alertEvents(mem); len(evs) != 1 || evs[0].Name != RuleFaultRate {
		t.Errorf("downstream alert events wrong: %+v", evs)
	}

	// A run of clean extractions flushes the faults out of the window
	// (and the cooldown keyed on doc position expires): healthy again.
	feedDocs(w, 20, true, 0)
	if n := len(w.Alerts()); n != 1 {
		t.Fatalf("alerts after recovery = %d, want still 1", n)
	}
}
