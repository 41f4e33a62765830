package blackbox

// HTTP exposure, mounted by the obs server at /debug/blackbox: GET
// returns the recorder's live state (ring occupancy, active spans,
// recent detector decisions, completed bundles) and POST /dump flushes
// a manual bundle — the remote equivalent of sending SIGQUIT.

import (
	"encoding/json"
	"net/http"
	"path"

	"adaptiverank/internal/obs"
)

// State is the JSON document GET /debug/blackbox returns.
type State struct {
	RunID     string      `json:"run_id,omitempty"`
	RingLen   int         `json:"ring_len"`
	RingCap   int         `json:"ring_cap"`
	Events    int64       `json:"events"`
	Dropped   int64       `json:"dropped"`
	Spans     []spanInfo  `json:"active_spans,omitempty"`
	Decisions []obs.Event `json:"decisions,omitempty"`
	Bundles   []string    `json:"bundles,omitempty"`
}

// State returns a consistent snapshot of the recorder's live state.
func (r *Ring) State() State {
	s := r.snapshot()
	bundles, _ := Bundles(r.opts.Dir)
	return State{
		RunID:     r.opts.RunID,
		RingLen:   len(s.events),
		RingCap:   ringSize,
		Events:    s.total,
		Dropped:   s.dropped,
		Spans:     s.spans,
		Decisions: s.decisions,
		Bundles:   bundles,
	}
}

// Handler serves the recorder state and the manual-dump trigger.
func (r *Ring) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch p := path.Clean("/" + req.URL.Path); {
		case p == "/" && req.Method == http.MethodGet:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(r.State())
		case p == "/dump" && req.Method == http.MethodPost:
			dir, err := r.Dump(obs.DumpReasonManual)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(struct {
				Bundle string `json:"bundle"`
			}{dir})
		default:
			http.NotFound(w, req)
		}
	})
}
