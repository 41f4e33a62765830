package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/extract"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/relation"
)

// fixedExtractor returns one tuple per document; the base of every
// fault-injection chain below.
type fixedExtractor struct{}

func (fixedExtractor) Relation() relation.Relation  { return relation.PO }
func (fixedExtractor) SimulatedCost() time.Duration { return time.Millisecond }
func (fixedExtractor) Extract(d *corpus.Document) []relation.Tuple {
	return []relation.Tuple{{Rel: relation.PO, Arg1: "x", Arg2: fmt.Sprint(d.ID)}}
}

// scriptedOracle fails per a fixed schedule keyed by call count; used
// where Flaky's hashed schedule is too coarse to steer a scenario.
type scriptedOracle struct {
	calls int
	// fail reports whether call i (0-based) should fail, and how.
	fail func(call int) error
}

func (s *scriptedOracle) Label(d *corpus.Document) (bool, []relation.Tuple) {
	u, ts, _ := s.LabelContext(context.Background(), d)
	return u, ts
}
func (s *scriptedOracle) TotalUseful() (int, bool) { return 0, false }
func (s *scriptedOracle) LabelContext(ctx context.Context, d *corpus.Document) (bool, []relation.Tuple, error) {
	call := s.calls
	s.calls++
	if err := s.fail(call); err != nil {
		if err.Error() == "panic" {
			panic("scripted panic")
		}
		return false, nil, err
	}
	return true, []relation.Tuple{{Rel: relation.PO, Arg1: "a", Arg2: "b"}}, nil
}

func resilientDoc(id int) *corpus.Document {
	return &corpus.Document{ID: corpus.DocID(id), Title: "t", Text: "x"}
}

// resilientOver builds the canonical chain: Resilient(ExtractorOracle(
// Flaky(fixedExtractor))), instrumented into reg/rec.
func resilientOver(fopts extract.FlakyOptions, ropts ResilientOptions, reg *obs.Registry, rec obs.Recorder) (*Resilient, *extract.Flaky) {
	fl := extract.NewFlaky(fixedExtractor{}, fopts)
	r := NewResilient(&ExtractorOracle{Ex: fl}, ropts)
	r.Instrument(reg, rec, nil)
	return r, fl
}

func kindEvents(rec *obs.MemRecorder, kind obs.Kind) []obs.Event {
	var out []obs.Event
	for _, e := range rec.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TestResilientErrorOnlySchedule: transient errors only — every
// non-poisoned doc must label successfully; faults and retries must show
// up in the obs stream and counters.
func TestResilientErrorOnlySchedule(t *testing.T) {
	reg := obs.NewRegistry()
	rec := &obs.MemRecorder{}
	var slept []time.Duration
	r, fl := resilientOver(
		extract.FlakyOptions{Seed: 7, ErrorRate: 0.3, MaxFaultyAttempts: 2},
		ResilientOptions{MaxAttempts: 4, Sleep: func(d time.Duration) { slept = append(slept, d) }},
		reg, rec)
	for i := 0; i < 100; i++ {
		d := resilientDoc(i)
		useful, tuples, err := r.LabelContext(context.Background(), d)
		if fl.Poisoned(d.ID) {
			t.Fatalf("error-only schedule poisoned doc %d", i)
		}
		if err != nil || !useful || len(tuples) != 1 {
			t.Fatalf("doc %d: useful=%v tuples=%v err=%v", i, useful, tuples, err)
		}
	}
	faults := reg.CounterValue("resilience.faults")
	if faults == 0 {
		t.Fatal("no faults injected; schedule degenerate")
	}
	if got := int64(len(kindEvents(rec, obs.KindExtractFault))); got != faults {
		t.Fatalf("fault events = %d, counter = %d", got, faults)
	}
	retries := reg.CounterValue("resilience.retries")
	if retries != faults {
		// every fault here is followed by a retry (MaxAttempts > MaxFaultyAttempts)
		t.Fatalf("retries = %d, want %d (one per fault)", retries, faults)
	}
	if int64(len(slept)) != retries {
		t.Fatalf("Sleep called %d times, want %d", len(slept), retries)
	}
	for _, e := range kindEvents(rec, obs.KindExtractFault) {
		if e.Name != "error" {
			t.Fatalf("error-only schedule produced fault class %q", e.Name)
		}
	}
	if reg.CounterValue("resilience.panics_recovered") != 0 ||
		reg.CounterValue("resilience.timeouts") != 0 ||
		reg.CounterValue("resilience.docs_poisoned") != 0 {
		t.Fatal("error-only schedule incremented unrelated counters")
	}
}

// TestResilientJitterDigest pins the backoff jitter: the Sleep durations
// of TestResilientErrorOnlySchedule's fault schedule hash to a constant.
// Trace comparisons skip dur_ns, so no other check sees the jitter.
func TestResilientJitterDigest(t *testing.T) {
	var slept []time.Duration
	r, _ := resilientOver(
		extract.FlakyOptions{Seed: 7, ErrorRate: 0.3, MaxFaultyAttempts: 2},
		ResilientOptions{MaxAttempts: 4, Sleep: func(d time.Duration) { slept = append(slept, d) }},
		nil, obs.Nop())
	for i := 0; i < 100; i++ {
		if _, _, err := r.LabelContext(context.Background(), resilientDoc(i)); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
	}
	h := sha256.New()
	for _, d := range slept {
		putUint64(h, uint64(d))
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d sleeps: digest %s", len(slept), got)
	if want := "b134f646dc51c3f3cb6a01a8ee88a2945c6ee957f7df6de3832f16f532c5a527"; got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

// TestResilientLatencyOnlySchedule: latency spikes are not faults — no
// retries, no fault events, correct answers.
func TestResilientLatencyOnlySchedule(t *testing.T) {
	reg := obs.NewRegistry()
	rec := &obs.MemRecorder{}
	r, _ := resilientOver(
		extract.FlakyOptions{Seed: 2, LatencyRate: 0.5, Latency: time.Millisecond},
		ResilientOptions{AttemptTimeout: 5 * time.Second},
		reg, rec)
	for i := 0; i < 40; i++ {
		useful, _, err := r.LabelContext(context.Background(), resilientDoc(i))
		if err != nil || !useful {
			t.Fatalf("doc %d: useful=%v err=%v", i, useful, err)
		}
	}
	if n := reg.CounterValue("resilience.faults"); n != 0 {
		t.Fatalf("latency-only schedule recorded %d faults", n)
	}
	if evs := kindEvents(rec, obs.KindExtractFault); len(evs) != 0 {
		t.Fatalf("latency-only schedule emitted %d fault events", len(evs))
	}
}

// TestResilientHangSchedule: a hanging extractor is cut off by the
// per-attempt timeout, classified "timeout", retried, and recovers once
// the flaky schedule stops hanging.
func TestResilientHangSchedule(t *testing.T) {
	reg := obs.NewRegistry()
	rec := &obs.MemRecorder{}
	r, _ := resilientOver(
		extract.FlakyOptions{Seed: 1, HangRate: 1, HangDur: time.Minute, MaxFaultyAttempts: 1},
		ResilientOptions{
			AttemptTimeout: 10 * time.Millisecond,
			Sleep:          func(time.Duration) {},
		},
		reg, rec)
	start := time.Now()
	useful, _, err := r.LabelContext(context.Background(), resilientDoc(0))
	if err != nil || !useful {
		t.Fatalf("useful=%v err=%v", useful, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hang was not bounded by the attempt timeout: %v", elapsed)
	}
	if n := reg.CounterValue("resilience.timeouts"); n == 0 {
		t.Fatal("hang not classified as a timeout")
	}
	evs := kindEvents(rec, obs.KindExtractFault)
	if len(evs) == 0 || evs[0].Name != "timeout" {
		t.Fatalf("fault events = %+v, want timeout class", evs)
	}
}

// TestResilientPanicSchedule: panics are recovered, classified, retried,
// and never escape LabelContext.
func TestResilientPanicSchedule(t *testing.T) {
	reg := obs.NewRegistry()
	rec := &obs.MemRecorder{}
	r, fl := resilientOver(
		extract.FlakyOptions{Seed: 4, PanicRate: 0.4, MaxFaultyAttempts: 2},
		ResilientOptions{MaxAttempts: 4, Sleep: func(time.Duration) {}},
		reg, rec)
	for i := 0; i < 60; i++ {
		d := resilientDoc(i)
		useful, _, err := r.LabelContext(context.Background(), d)
		if fl.Poisoned(d.ID) {
			continue
		}
		if err != nil || !useful {
			t.Fatalf("doc %d: useful=%v err=%v", i, useful, err)
		}
	}
	if reg.CounterValue("resilience.panics_recovered") == 0 {
		t.Fatal("no panics recovered; schedule degenerate")
	}
	sawPanicClass := false
	for _, e := range kindEvents(rec, obs.KindExtractFault) {
		if e.Name == "panic" {
			sawPanicClass = true
		}
	}
	if !sawPanicClass {
		t.Fatal("no fault event carried the panic class")
	}
}

// TestResilientMixedScheduleConverges is the acceptance scenario: 10%
// transient errors + 1% panics over a corpus; the run completes with no
// crash, labels every non-poisoned doc correctly, and surfaces the
// injected faults in /metrics counters.
func TestResilientMixedScheduleConverges(t *testing.T) {
	reg := obs.NewRegistry()
	rec := &obs.MemRecorder{}
	r, fl := resilientOver(
		extract.FlakyOptions{Seed: 42, ErrorRate: 0.10, PanicRate: 0.01, PoisonRate: 0.01, MaxFaultyAttempts: 2},
		ResilientOptions{MaxAttempts: 4, Sleep: func(time.Duration) {}},
		reg, rec)
	poisoned := 0
	for i := 0; i < 500; i++ {
		d := resilientDoc(i)
		useful, tuples, err := r.LabelContext(context.Background(), d)
		if fl.Poisoned(d.ID) {
			poisoned++
			if !errors.Is(err, ErrDocPoisoned) {
				t.Fatalf("poisoned doc %d: err = %v, want ErrDocPoisoned", i, err)
			}
			continue
		}
		if err != nil || !useful || len(tuples) != 1 {
			t.Fatalf("doc %d: useful=%v tuples=%v err=%v", i, useful, tuples, err)
		}
	}
	if poisoned == 0 {
		t.Fatal("schedule poisoned no documents; acceptance scenario degenerate")
	}
	if got := reg.CounterValue("resilience.docs_poisoned"); got != int64(poisoned) {
		t.Fatalf("docs_poisoned counter = %d, want %d", got, poisoned)
	}
	if reg.CounterValue("resilience.faults") == 0 || reg.CounterValue("resilience.panics_recovered") == 0 {
		t.Fatal("mixed schedule left fault counters at zero")
	}
}

// TestResilientBackoffSequence: delays grow exponentially from
// BaseBackoff, stay within the jitter envelope [d/2, d], and are capped
// at MaxBackoff.
func TestResilientBackoffSequence(t *testing.T) {
	var slept []time.Duration
	r := NewResilient(&scriptedOracle{fail: func(int) error { return errors.New("down") }},
		ResilientOptions{
			MaxAttempts: 6,
			BaseBackoff: 8 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			Sleep:       func(d time.Duration) { slept = append(slept, d) },
		})
	_, _, err := r.LabelContext(context.Background(), resilientDoc(0))
	if !errors.Is(err, ErrDocPoisoned) {
		t.Fatalf("err = %v, want ErrDocPoisoned", err)
	}
	want := []time.Duration{8, 16, 20, 20, 20} // ms, pre-jitter, capped
	if len(slept) != len(want) {
		t.Fatalf("slept %d times, want %d", len(slept), len(want))
	}
	for i, d := range slept {
		lo, hi := want[i]*time.Millisecond/2, want[i]*time.Millisecond
		if d < lo || d > hi {
			t.Fatalf("backoff %d = %v, want in [%v, %v]", i, d, lo, hi)
		}
	}
}

// TestResilientBreakerTripsAndRecovers drives the full breaker cycle:
// closed -> open after BreakerThreshold consecutive failures, fast-fail
// with ErrBreakerOpen while open, half-open probe after BreakerCooldown
// calls, and closed again on a successful probe — all visible in the
// obs event stream.
func TestResilientBreakerTripsAndRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	rec := &obs.MemRecorder{}
	down := true
	or := &scriptedOracle{fail: func(int) error {
		if down {
			return errors.New("backend down")
		}
		return nil
	}}
	r := NewResilient(or, ResilientOptions{
		MaxAttempts:      2,
		BreakerThreshold: 4,
		BreakerCooldown:  3,
		Sleep:            func(time.Duration) {},
	})
	r.Instrument(reg, rec, nil)

	// Two docs x 2 attempts = 4 consecutive failures: trips the breaker.
	for i := 0; i < 2; i++ {
		if _, _, err := r.LabelContext(context.Background(), resilientDoc(i)); !errors.Is(err, ErrDocPoisoned) {
			t.Fatalf("doc %d err = %v, want ErrDocPoisoned", i, err)
		}
	}
	if st := r.BreakerState(); st != "open" {
		t.Fatalf("breaker state = %q, want open", st)
	}
	if n := reg.CounterValue("resilience.breaker_trips"); n != 1 {
		t.Fatalf("breaker_trips = %d, want 1", n)
	}
	// While open, calls fast-fail with ErrBreakerOpen (requeue signal)
	// without touching the oracle.
	callsBefore := or.calls
	for i := 0; i < 2; i++ { // cooldown is 3; these two stay fast-failed
		if _, _, err := r.LabelContext(context.Background(), resilientDoc(10+i)); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("open-breaker err = %v, want ErrBreakerOpen", err)
		}
	}
	if or.calls != callsBefore {
		t.Fatal("open breaker still called the oracle")
	}
	if n := reg.CounterValue("resilience.breaker_fastfails"); n != 2 {
		t.Fatalf("breaker_fastfails = %d, want 2", n)
	}

	// Backend recovers; the third call since opening is the half-open
	// probe, succeeds, and closes the breaker.
	down = false
	useful, _, err := r.LabelContext(context.Background(), resilientDoc(20))
	if err != nil || !useful {
		t.Fatalf("probe call: useful=%v err=%v", useful, err)
	}
	if st := r.BreakerState(); st != "closed" {
		t.Fatalf("breaker state after probe = %q, want closed", st)
	}

	var states []string
	for _, e := range kindEvents(rec, obs.KindBreaker) {
		states = append(states, e.Name)
	}
	want := []string{"open", "half-open", "closed"}
	if len(states) != len(want) {
		t.Fatalf("breaker transitions = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("breaker transitions = %v, want %v", states, want)
		}
	}
}

// TestResilientBreakerFailedProbeReopens: a failed half-open probe goes
// straight back to open without a fresh threshold count.
func TestResilientBreakerFailedProbeReopens(t *testing.T) {
	or := &scriptedOracle{fail: func(int) error { return errors.New("still down") }}
	r := NewResilient(or, ResilientOptions{
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  2,
		Sleep:            func(time.Duration) {},
	})
	for i := 0; i < 2; i++ { // trip
		r.LabelContext(context.Background(), resilientDoc(i))
	}
	if st := r.BreakerState(); st != "open" {
		t.Fatalf("state = %q, want open", st)
	}
	r.LabelContext(context.Background(), resilientDoc(10)) // fast-fail 1
	_, _, err := r.LabelContext(context.Background(), resilientDoc(11))
	// fast-fail 2 reaches the cooldown: this call was the probe and failed.
	if errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("probe call fast-failed instead of probing: %v", err)
	}
	if st := r.BreakerState(); st != "open" {
		t.Fatalf("state after failed probe = %q, want open", st)
	}
}

// TestResilientContextCancellation: cancelling the run context stops
// retrying immediately and surfaces ctx.Err, not a fault classification.
func TestResilientContextCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	attempts := 0
	r := NewResilient(&scriptedOracle{fail: func(int) error { attempts++; return errors.New("x") }},
		ResilientOptions{MaxAttempts: 10, Sleep: func(time.Duration) {}})
	r.Instrument(reg, obs.Nop(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := r.LabelContext(ctx, resilientDoc(0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if attempts != 0 {
		t.Fatalf("cancelled call still made %d attempts", attempts)
	}
}

// TestResilientFallbackForPlainOracle: a context-unaware Oracle still
// works through the resilience layer (Label path), including panic
// recovery around it.
func TestResilientFallbackForPlainOracle(t *testing.T) {
	r := NewResilient(&panickyPlainOracle{}, ResilientOptions{
		MaxAttempts: 3, Sleep: func(time.Duration) {},
	})
	useful, tuples, err := r.LabelContext(context.Background(), resilientDoc(0))
	if err != nil || !useful || len(tuples) != 1 {
		t.Fatalf("useful=%v tuples=%v err=%v", useful, tuples, err)
	}
}

// panickyPlainOracle implements only Oracle and panics on its first call.
type panickyPlainOracle struct{ calls int }

func (p *panickyPlainOracle) Label(d *corpus.Document) (bool, []relation.Tuple) {
	p.calls++
	if p.calls == 1 {
		panic("first call boom")
	}
	return true, []relation.Tuple{{Rel: relation.PO, Arg1: "a", Arg2: "b"}}
}
func (p *panickyPlainOracle) TotalUseful() (int, bool) { return 0, false }
