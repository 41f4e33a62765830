package prof

// Periodic runtime/metrics sampling: every numeric metric the runtime
// exports (scheduler latencies, GC cycles, heap goal, cgo calls, ...)
// is written as one JSONL line per sample, stamped with the wall clock
// and the profile phase active at sample time. Consumers diff adjacent
// lines to get per-interval deltas; cmd/runreport reads only the
// manifest, not these samples.

import (
	"runtime/metrics"
	"time"
)

type metricDesc struct{ name string }

// metricDescs enumerates the runtime metrics worth sampling: the plain
// numeric kinds. Histogram-valued metrics are skipped — the heap and
// scheduling distributions are captured by the pprof snapshots instead.
func metricDescs() []metricDesc {
	var out []metricDesc
	for _, d := range metrics.All() {
		if d.Kind == metrics.KindUint64 || d.Kind == metrics.KindFloat64 {
			out = append(out, metricDesc{name: d.Name})
		}
	}
	return out
}

// MetricsSample is one decoded line of metrics.jsonl.
type MetricsSample struct {
	T     int64              `json:"t"`
	Phase string             `json:"phase"`
	M     map[string]float64 `json:"m"`
}

// sampleMetrics reads every tracked runtime metric and appends one
// line. Callers are serialized by construction: Start samples before
// the loop goroutine exists, the loop samples on its ticker, and Close
// samples only after the loop has exited.
func (p *Profiler) sampleMetrics() {
	if p.met == nil {
		return
	}
	samples := make([]metrics.Sample, len(p.metDescs))
	for i, d := range p.metDescs {
		samples[i].Name = d.name
	}
	metrics.Read(samples)
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			m[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			m[s.Name] = s.Value.Float64()
		}
	}
	p.mu.Lock()
	phase := p.phaseLocked()
	p.mu.Unlock()
	if err := p.met.Append(MetricsSample{T: time.Now().UnixNano(), Phase: phase, M: m}); err != nil {
		p.cErrs.Inc()
	}
}
