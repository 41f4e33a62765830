package explain

import (
	"encoding/json"
	"net/http"
	"path"
	"strconv"
	"strings"
)

// Handler serves the live introspection state:
//
//	/           summary: run identity and retained record counts
//	/weights    the latest model snapshot (top weights, norms, drift)
//	/drift      the retained snapshot timeline, oldest first
//	/decisions  retained detector decisions (?fired=1 filters to fires,
//	            ?n=K keeps the most recent K)
//	/explain    retained attributions (?doc=N selects one document)
//
// The obs server mounts it under /model (and /explain at the root), so
// the live endpoints of the issue are /model/weights, /model/drift, and
// /explain?doc=N. All responses are copies taken under the lock and
// encoded after releasing it, so a slow client never stalls capture.
func (e *Explainer) Handler() http.Handler {
	if e == nil {
		return http.NotFoundHandler()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p := path.Clean("/" + strings.Trim(r.URL.Path, "/"))
		switch p {
		case "/":
			e.serveSummary(w)
		case "/weights":
			e.serveWeights(w)
		case "/drift":
			e.serveDrift(w)
		case "/decisions":
			e.serveDecisions(w, r)
		case "/explain":
			e.serveExplain(w, r)
		default:
			http.NotFound(w, r)
		}
	})
}

func (e *Explainer) serveSummary(w http.ResponseWriter) {
	snaps, attribs, decs := e.State()
	writeJSON(w, map[string]any{
		"run_id":       e.opts.RunID,
		"fingerprint":  e.opts.Fingerprint,
		"pos":          e.pos.Load(),
		"snapshots":    snaps,
		"attributions": attribs,
		"decisions":    decs,
	})
}

func (e *Explainer) serveWeights(w http.ResponseWriter) {
	e.mu.Lock()
	var latest *Record
	if n := len(e.snapshots); n > 0 {
		r := e.snapshots[n-1]
		latest = &r
	}
	e.mu.Unlock()
	if latest == nil {
		http.Error(w, "no model snapshot captured yet", http.StatusNotFound)
		return
	}
	writeJSON(w, latest)
}

func (e *Explainer) serveDrift(w http.ResponseWriter) {
	e.mu.Lock()
	snaps := newest(e.snapshots, keepSnapshots)
	out := make([]Record, len(snaps))
	copy(out, snaps)
	e.mu.Unlock()
	writeJSON(w, out)
}

func (e *Explainer) serveDecisions(w http.ResponseWriter, r *http.Request) {
	firedOnly := r.URL.Query().Get("fired") == "1"
	limit := 0
	if s := r.URL.Query().Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			http.Error(w, "n must be a positive integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	e.mu.Lock()
	decs := newest(e.decisions, keepDecisions)
	out := make([]Record, 0, len(decs))
	for _, d := range decs {
		if firedOnly && !d.Fired {
			continue
		}
		out = append(out, d)
	}
	e.mu.Unlock()
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	writeJSON(w, out)
}

func (e *Explainer) serveExplain(w http.ResponseWriter, r *http.Request) {
	docParam := r.URL.Query().Get("doc")
	e.mu.Lock()
	attribs := newest(e.attribs, keepAttributions)
	out := make([]Record, len(attribs))
	copy(out, attribs)
	e.mu.Unlock()
	if docParam == "" {
		writeJSON(w, out)
		return
	}
	doc, err := strconv.ParseInt(docParam, 10, 64)
	if err != nil {
		http.Error(w, "doc must be an integer document id", http.StatusBadRequest)
		return
	}
	// Latest attribution wins: later rankings re-attribute at fresher
	// model states.
	for i := len(out) - 1; i >= 0; i-- {
		if out[i].Doc == doc {
			writeJSON(w, out[i])
			return
		}
	}
	http.Error(w, "no attribution retained for document "+docParam, http.StatusNotFound)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
