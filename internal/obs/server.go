package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// RunStatus is the live state of one pipeline run as reconstructed from
// its event stream by a RunTracker, served as JSON on /runs.
type RunStatus struct {
	// ID numbers runs in trace order (0-based).
	ID int `json:"id"`
	// Strategy is the run's ranking strategy name.
	Strategy string `json:"strategy"`
	// CollectionSize is the document-collection size.
	CollectionSize int `json:"collection_size"`
	// TotalUseful is the collection's useful-document count when the
	// labelling oracle knows it (0 otherwise).
	TotalUseful int `json:"total_useful,omitempty"`
	// SampleDocs/SampleUseful describe the processed initial sample.
	SampleDocs   int `json:"sample_docs"`
	SampleUseful int `json:"sample_useful"`
	// DocsProcessed/UsefulFound count ranked-phase documents.
	DocsProcessed int `json:"docs_processed"`
	UsefulFound   int `json:"useful_found"`
	// Updates and Reranks count model updates and (re-)rankings so far.
	Updates int `json:"updates"`
	Reranks int `json:"reranks"`
	// Recall is UsefulFound over the ranked-phase denominator
	// (TotalUseful - SampleUseful), when TotalUseful is known.
	Recall float64 `json:"recall,omitempty"`
	// Running is true until the run-finished event arrives.
	Running bool `json:"running"`
	// StartedAt/FinishedAt are Unix-nanosecond wall-clock stamps.
	StartedAt  int64 `json:"started_at_unix_ns"`
	FinishedAt int64 `json:"finished_at_unix_ns,omitempty"`
}

// RunTracker is a Recorder that folds the event stream into per-run
// status records: the /runs endpoint's data source. The zero value is
// ready to use.
type RunTracker struct {
	mu   sync.Mutex
	runs []RunStatus
}

// Enabled implements Recorder.
func (t *RunTracker) Enabled() bool { return true }

// Record implements Recorder.
func (t *RunTracker) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.Kind == KindRunStarted {
		t.runs = append(t.runs, RunStatus{
			ID:             len(t.runs),
			Strategy:       e.Name,
			CollectionSize: e.N,
			TotalUseful:    int(e.Val),
			Running:        true,
			StartedAt:      e.T,
		})
		return
	}
	if len(t.runs) == 0 {
		// Tolerate a stream joined mid-run: open an implicit run.
		t.runs = append(t.runs, RunStatus{Running: true, StartedAt: e.T})
	}
	r := &t.runs[len(t.runs)-1]
	switch e.Kind {
	case KindSampleLabelled:
		r.SampleDocs++
		if e.Useful {
			r.SampleUseful++
		}
	case KindDocExtracted:
		r.DocsProcessed++
		if e.Useful {
			r.UsefulFound++
		}
	case KindRankFinished:
		r.Reranks++
	case KindModelUpdated:
		r.Updates++
	case KindRunFinished:
		r.Running = false
		r.FinishedAt = e.T
	}
	if r.TotalUseful > 0 {
		if denom := r.TotalUseful - r.SampleUseful; denom > 0 {
			r.Recall = float64(r.UsefulFound) / float64(denom)
		} else {
			r.Recall = 1
		}
	}
}

// Runs returns a snapshot of all tracked runs in trace order.
func (t *RunTracker) Runs() []RunStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RunStatus, len(t.runs))
	copy(out, t.runs)
	return out
}

// ServerOptions configures an observability Server. All fields are
// optional: a nil Registry serves an empty /metrics page, a nil Stream
// turns /events into a 404, a nil Runs turns /runs into an empty list,
// a nil Watchdog makes /alerts an empty list.
type ServerOptions struct {
	// Registry backs /metrics (Prometheus text format v0.0.4).
	Registry *Registry
	// Stream backs /events (Server-Sent Events).
	Stream *StreamRecorder
	// Runs backs /runs (JSON run status).
	Runs *RunTracker
	// Watchdog backs /alerts (JSON SLO-alert list).
	Watchdog *Watchdog
	// RuntimeInterval is the runtime health sampler's period: with a
	// non-nil Registry, Start launches a RuntimeSampler publishing GC
	// pause, heap, and goroutine gauges every interval (0 selects 1s);
	// a negative interval disables the sampler. Close stops it.
	RuntimeInterval time.Duration
	// Blackbox backs /debug/blackbox (flight-recorder state and the
	// manual-dump trigger). Handlers rather than concrete types, because
	// obs cannot import its own subpackages: pass blackbox.Ring.Handler()
	// and prof.DirHandler(dir). Nil turns the route into a 404.
	Blackbox http.Handler
	// Profiles backs /profiles/ (profile-directory manifest listing and
	// artifact download).
	Profiles http.Handler
	// Explain backs /model/ (live model snapshots, drift timeline,
	// detector decisions) and /explain (score attributions): pass
	// explain.Explainer.Handler(). Nil turns the routes into 404s.
	Explain http.Handler
}

// Server serves the observability endpoints of a live run:
//
//	/metrics       Prometheus text-format exposition of the registry
//	/healthz       liveness JSON (status, uptime, subscriber count)
//	/runs          per-run status JSON (RunTracker)
//	/events        Server-Sent Events stream of trace events
//	/alerts        SLO watchdog alert list (JSON)
//	/debug/pprof/  the standard runtime profiles
//	/debug/blackbox  flight-recorder state + POST /dump (when wired)
//	/profiles/     profile-directory listing and artifacts (when wired)
//	/model/        live model snapshots, drift, decisions (when wired)
//	/explain       live score attributions, ?doc=N (when wired)
//
// It replaces the ad-hoc net/http/pprof DefaultServeMux listeners the
// CLIs used to spin up: everything is mounted on one private mux.
type Server struct {
	opts    ServerOptions
	started time.Time
	http    *http.Server
	sampler *RuntimeSampler
	// sse tracks in-flight /events handlers so Close can wait for their
	// goroutines (and their stream subscriptions) to wind down instead
	// of leaking them past shutdown.
	sse sync.WaitGroup
}

// NewServer returns an unstarted server.
func NewServer(opts ServerOptions) *Server {
	return &Server{opts: opts, started: time.Now()}
}

// Handler returns the server's full route table as an http.Handler
// (also usable under a test server or an existing mux).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/alerts", s.handleAlerts)
	if s.opts.Blackbox != nil {
		mux.Handle("/debug/blackbox", http.StripPrefix("/debug/blackbox", s.opts.Blackbox))
		mux.Handle("/debug/blackbox/", http.StripPrefix("/debug/blackbox", s.opts.Blackbox))
	}
	if s.opts.Profiles != nil {
		mux.Handle("/profiles", http.StripPrefix("/profiles", s.opts.Profiles))
		mux.Handle("/profiles/", http.StripPrefix("/profiles", s.opts.Profiles))
	}
	if s.opts.Explain != nil {
		mux.Handle("/model", http.StripPrefix("/model", s.opts.Explain))
		mux.Handle("/model/", http.StripPrefix("/model", s.opts.Explain))
		// The explain handler routes by cleaned sub-path, so mounting it
		// unstripped at /explain serves the attribution endpoint.
		mux.Handle("/explain", s.opts.Explain)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start listens on addr (":0" picks a free port) and serves in a
// background goroutine, returning the bound address. With a non-nil
// Registry (and a non-negative RuntimeInterval) it also starts the
// runtime health sampler feeding /metrics.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: serve: %w", err)
	}
	if s.opts.Registry != nil && s.opts.RuntimeInterval >= 0 {
		s.sampler = StartRuntimeSampler(s.opts.Registry, s.opts.RuntimeInterval)
	}
	s.http = &http.Server{Handler: s.Handler()}
	go s.http.Serve(ln) // error is http.ErrServerClosed after Close
	return ln.Addr().String(), nil
}

// Close shuts the server down: the listener and all open connections
// (including SSE streams) are closed, and Close blocks until every
// /events handler goroutine and the runtime sampler have exited — no
// goroutine started on the server's behalf survives it.
func (s *Server) Close() error {
	var err error
	if s.http != nil {
		err = s.http.Close()
	}
	s.sampler.Close()
	s.sse.Wait()
	return err
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WritePrometheus(w, s.opts.Registry.Snapshot()); err != nil {
		// Headers are gone; nothing useful left to do for this request.
		return
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	subs := 0
	if s.opts.Stream != nil {
		subs = s.opts.Stream.Subscribers()
	}
	running := 0
	if s.opts.Runs != nil {
		for _, r := range s.opts.Runs.Runs() {
			if r.Running {
				running++
			}
		}
	}
	alerts := 0
	if s.opts.Watchdog != nil {
		alerts = len(s.opts.Watchdog.Alerts())
	}
	writeJSON(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
		"subscribers":    subs,
		"runs_active":    running,
		"alerts":         alerts,
	})
}

// handleAlerts serves the SLO watchdog's alert list (empty when no
// watchdog is attached or nothing has fired).
func (s *Server) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	alerts := []Alert{}
	if s.opts.Watchdog != nil {
		alerts = s.opts.Watchdog.Alerts()
	}
	writeJSON(w, alerts)
}

func (s *Server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	runs := []RunStatus{}
	if s.opts.Runs != nil {
		runs = s.opts.Runs.Runs()
	}
	writeJSON(w, runs)
}

// handleEvents serves the trace as Server-Sent Events: the ring buffer
// is replayed first (in Seq order), then live events stream until the
// client disconnects. Event ids carry Seq, event names carry Kind.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.opts.Stream == nil {
		http.Error(w, "event streaming not enabled", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	s.sse.Add(1)
	defer s.sse.Done()
	ch, cancel := s.opts.Stream.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-ch:
			if !ok {
				return
			}
			data, err := json.Marshal(e)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind, data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // best effort; the response is already committed
}
