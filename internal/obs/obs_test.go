package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if reg.Counter("a") != c {
		t.Error("Counter must return the same instrument per name")
	}
	if reg.CounterValue("a") != 5 {
		t.Error("CounterValue mismatch")
	}
	if reg.CounterValue("absent") != 0 {
		t.Error("absent counter must read 0")
	}

	g := reg.Gauge("g")
	if g.Value() != 0 {
		t.Error("gauge must start at 0")
	}
	g.Set(3.5)
	if g.Value() != 3.5 {
		t.Errorf("gauge = %g, want 3.5", g.Value())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-556.2) > 1e-9 {
		t.Errorf("sum = %g, want 556.2", h.Sum())
	}
	reg.Histogram("empty", []float64{1})
	s := reg.Snapshot()
	if len(s.Histograms) != 2 || s.Histograms[0].Name != "empty" || s.Histograms[1].Name != "h" {
		t.Fatalf("snapshot histograms: %+v", s.Histograms)
	}
	if q := s.Histograms[1].Quantile(0.5); q != 10 {
		t.Errorf("p50 = %g, want 10 (bucket bound)", q)
	}
	if q := s.Histograms[1].Quantile(1); !math.IsInf(q, 1) {
		t.Errorf("p100 = %g, want +Inf (overflow bucket)", q)
	}
	if s.Histograms[0].Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	h.ObserveDuration(500 * time.Millisecond)
	if math.Abs(h.Sum()-556.7) > 1e-9 {
		t.Errorf("sum after duration = %g, want 556.7", h.Sum())
	}
}

func TestLatencyBucketsShape(t *testing.T) {
	b := LatencyBuckets()
	if len(b) != 25 || b[0] != 1e-6 {
		t.Fatalf("unexpected default buckets: %v", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatal("bounds must be strictly increasing")
		}
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var reg *Registry
	reg.Counter("x").Inc()
	reg.Gauge("y").Set(1)
	reg.Histogram("z", nil).Observe(2)
	if reg.CounterValue("x") != 0 {
		t.Error("nil registry must read 0")
	}
	if err := reg.Dump(&bytes.Buffer{}); err != nil {
		t.Errorf("nil Dump: %v", err)
	}
}

func TestDumpFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.count").Add(2)
	reg.Counter("a.count").Add(1)
	reg.Gauge("c.gauge").Set(0.25)
	reg.Histogram("d.hist", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := reg.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("dump lines = %d, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "a.count 1") || !strings.HasPrefix(lines[1], "b.count 2") {
		t.Errorf("dump must be sorted by name:\n%s", buf.String())
	}
	if !strings.Contains(lines[3], "count=1") || !strings.Contains(lines[3], "sum=1.5") {
		t.Errorf("histogram line malformed: %q", lines[3])
	}
}

// TestRegistryConcurrentHammer drives one registry from many goroutines
// that race on instrument creation and on the instruments themselves;
// run with -race. Totals must come out exact.
func TestRegistryConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const (
		goroutines = 32
		iters      = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				reg.Counter("hammer.count").Inc()
				reg.Gauge("hammer.gauge").Set(float64(g))
				reg.Histogram("hammer.hist", nil).Observe(float64(i%10) * 1e-6)
				// Per-goroutine names force fresh create paths too.
				if i == 0 {
					reg.Counter("hammer.count." + string(rune('a'+g%26))).Inc()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := reg.CounterValue("hammer.count"); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	h := reg.Histogram("hammer.hist", nil)
	if h.Count() != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*iters)
	}
	var wantSum float64
	for i := 0; i < iters; i++ {
		wantSum += float64(i%10) * 1e-6
	}
	wantSum *= goroutines
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Errorf("histogram sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestJSONLRecorderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewJSONLRecorder(&buf)
	if !rec.Enabled() {
		t.Fatal("JSONL recorder must be enabled")
	}
	rec.Record(Event{Kind: KindRunStarted, Name: "RSVM-IE", N: 100})
	rec.Record(Event{Kind: KindDocExtracted, Doc: 7, Useful: true, Dur: 3 * time.Millisecond})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Seq != 1 || events[1].Seq != 2 {
		t.Error("sequence numbers must be assigned in order")
	}
	if events[0].T == 0 {
		t.Error("record time must be assigned")
	}
	if events[1].Doc != 7 || !events[1].Useful || events[1].Dur != 3*time.Millisecond {
		t.Errorf("round-trip mismatch: %+v", events[1])
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{\"kind\":\"phase\"}\nnot json\n")); err == nil {
		t.Error("malformed trace must error")
	}
	if _, err := ReadEvents(strings.NewReader("{\"seq\":1}\n")); err == nil {
		t.Error("kind-less record must error")
	}
}

func TestNopRecorder(t *testing.T) {
	rec := Nop()
	if rec.Enabled() {
		t.Fatal("Nop must be disabled")
	}
	rec.Record(Event{Kind: KindRunStarted}) // must not panic
}

func TestPhaseTotals(t *testing.T) {
	events := []Event{
		{Kind: KindSampleLabelled, Dur: 2 * time.Millisecond},
		{Kind: KindDocExtracted, Dur: 3 * time.Millisecond},
		{Kind: KindRankFinished, Dur: 5 * time.Millisecond},
		{Kind: KindPhase, Name: "strategy-observe", Dur: 1 * time.Millisecond},
		{Kind: KindPhase, Name: "init-train", Dur: 7 * time.Millisecond},
		{Kind: KindModelUpdated, Dur: 11 * time.Millisecond},
		{Kind: KindPhase, Name: "detector-prime", Dur: 13 * time.Millisecond},
		{Kind: KindPhase, Name: "detection", Dur: 17 * time.Millisecond},
		{Kind: KindRunFinished, Dur: time.Hour}, // must be ignored
	}
	totals := PhaseTotals(events)
	want := map[string]time.Duration{
		"extraction": 5 * time.Millisecond,
		"ranking":    6 * time.Millisecond,
		"training":   18 * time.Millisecond,
		"detection":  30 * time.Millisecond,
		"total":      59 * time.Millisecond,
	}
	for k, w := range want {
		if totals[k] != w {
			t.Errorf("%s = %v, want %v", k, totals[k], w)
		}
	}
}

// BenchmarkDisabledPath measures the cost the hot path pays when
// observability is off: shared no-op instruments from a nil registry and
// the no-op recorder behind its Enabled guard. The acceptance bar is
// zero allocations and nanosecond-scale cost per instrument call.
func BenchmarkDisabledPath(b *testing.B) {
	var reg *Registry // nil registry hands out shared no-ops
	c := reg.Counter("bench.counter")
	g := reg.Gauge("bench.gauge")
	h := reg.Histogram("bench.hist", nil)
	rec := Nop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(1)
		h.Observe(1)
		if rec.Enabled() {
			rec.Record(Event{Kind: KindDocExtracted, Doc: int64(i)})
		}
	}
}

// BenchmarkEnabledRegistry measures the live-instrument cost for
// comparison (atomic ops, no locks, no allocations).
func BenchmarkEnabledRegistry(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench.counter")
	g := reg.Gauge("bench.gauge")
	h := reg.Histogram("bench.hist", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(float64(i))
		h.Observe(float64(i%1000) * 1e-6)
	}
}
