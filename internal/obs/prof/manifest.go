package prof

// The profile-directory manifest: one JSONL file keying every captured
// artifact to run id and wall-clock window (snapshots also to phase and
// span id), so profiles join against the event trace (span ids and
// UnixNano timestamps are the same vocabulary obs.Event uses). The first
// record is a header carrying the run identity and environment; every
// subsequent record describes one artifact file in the same directory.
//
// The writer appends and flushes per record and fsyncs on close — the
// same crash-safety contract as the resume journal — and the reader
// tolerates a truncated final line, so a manifest cut off by a crash
// still yields every completed artifact.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"adaptiverank/internal/durable"
)

// ManifestName is the manifest's file name inside a profile directory.
const ManifestName = "manifest.jsonl"

// Record kinds.
const (
	RecordHeader   = "header"
	RecordArtifact = "artifact"
)

// Record is one line of the manifest.
type Record struct {
	Kind string `json:"kind"`

	// Header fields: run identity and capture environment.
	RunID       string `json:"run_id,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Go          string `json:"go,omitempty"`
	GOOS        string `json:"goos,omitempty"`
	GOARCH      string `json:"goarch,omitempty"`
	GOMAXPROCS  int    `json:"gomaxprocs,omitempty"`

	// Artifact fields. Artifact is an obs.ProfArtifact* kind; File is the
	// artifact's name inside the directory; T0/T1 bound the capture window
	// in UnixNano. Snapshots also carry Phase, the profile phase (a span
	// name, obs.ProfPhaseExtract, or obs.ProfPhaseIdle), and Span, the id
	// of the span they are attributed to (0 outside any phase span). CPU
	// windows carry neither: a window can span several phases, and its
	// samples carry the phase as a pprof label instead.
	Artifact string `json:"artifact,omitempty"`
	File     string `json:"file,omitempty"`
	Phase    string `json:"phase,omitempty"`
	Span     int64  `json:"span,omitempty"`
	T0       int64  `json:"t0,omitempty"`
	T1       int64  `json:"t1,omitempty"`
}

// Manifest is the decoded form of one profile directory's manifest.
type Manifest struct {
	Header    Record
	Artifacts []Record
}

// ByArtifact returns the artifact records of one kind, in capture order.
func (m *Manifest) ByArtifact(kind string) []Record {
	var out []Record
	for _, r := range m.Artifacts {
		if r.Artifact == kind {
			out = append(out, r)
		}
	}
	return out
}

// ReadManifest loads dir's manifest under the durable.ScanTornTail
// contract: a truncated final line (crash while appending) is ignored; a
// malformed line elsewhere is an error.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if _, err := durable.ScanTornTail(data, func(line int, raw []byte) error {
		var r Record
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("prof: manifest line %d: %w", line, err)
		}
		if r.Kind == RecordHeader && m.Header.Kind == "" {
			m.Header = r
			return nil
		}
		m.Artifacts = append(m.Artifacts, r)
		return nil
	}); err != nil {
		return nil, err
	}
	if m.Header.Kind == "" {
		return nil, fmt.Errorf("prof: manifest in %s has no header record", dir)
	}
	return m, nil
}

// manifestWriter appends manifest records crash-safely via durable.JSONL:
// every append is flushed to the OS, and close fsyncs before returning —
// the postmortem exit paths (SIGQUIT, watchdog dump) rely on this.
type manifestWriter struct {
	jl *durable.JSONL
}

func newManifestWriter(fsys durable.FS, dir string, header Record) (*manifestWriter, error) {
	jl, err := durable.AppendJSONL(fsys, filepath.Join(dir, ManifestName), "prof-manifest")
	if err != nil {
		return nil, err
	}
	mw := &manifestWriter{jl: jl}
	header.Kind = RecordHeader
	if err := mw.append(header); err != nil {
		jl.Close()
		return nil, err
	}
	return mw, nil
}

func (mw *manifestWriter) append(r Record) error {
	if r.Kind == "" {
		r.Kind = RecordArtifact
	}
	return mw.jl.Append(r)
}

func (mw *manifestWriter) close() error { return mw.jl.Close() }
