package main

// Rendering for the three report modes. All output is deterministic
// for a given input directory — CPU windows print in capture order,
// snapshot phases in canonical pipeline order — which is what lets
// testdata goldens pin the format.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/blackbox"
	"adaptiverank/internal/obs/prof"
)

// phaseOrder is the canonical rendering order; phases outside it sort
// alphabetically after.
var phaseOrder = map[string]int{
	obs.SpanRun:           0,
	obs.SpanSample:        1,
	obs.SpanTrainInit:     2,
	obs.SpanDetectorPrime: 3,
	obs.SpanRank:          4,
	obs.ProfPhaseExtract:  5,
	obs.SpanTrainUpdate:   6,
	obs.ProfPhaseIdle:     7,
}

func sortPhases(phases []string) {
	sort.Slice(phases, func(i, j int) bool {
		oi, iok := phaseOrder[phases[i]]
		oj, jok := phaseOrder[phases[j]]
		switch {
		case iok && jok:
			return oi < oj
		case iok:
			return true
		case jok:
			return false
		default:
			return phases[i] < phases[j]
		}
	})
}

func formatBytes(v int64) string {
	switch {
	case v >= 1<<20 || v <= -(1<<20):
		return fmt.Sprintf("%.1fMB", float64(v)/(1<<20))
	case v >= 1<<10 || v <= -(1<<10):
		return fmt.Sprintf("%.1fkB", float64(v)/(1<<10))
	}
	return fmt.Sprintf("%dB", v)
}

func formatNanos(v int64) string { return time.Duration(v).Round(time.Millisecond).String() }

func writeHeader(w io.Writer, dir string, m *prof.Manifest) {
	fmt.Fprintf(w, "profile directory: %s\n", dir)
	h := m.Header
	fmt.Fprintf(w, "run %s", h.RunID)
	if h.Fingerprint != "" {
		fmt.Fprintf(w, "  fingerprint %s", h.Fingerprint)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s %s/%s gomaxprocs %d\n", h.Go, h.GOOS, h.GOARCH, h.GOMAXPROCS)
}

// snapshotKinds are the snapshot artifact kinds, in column order.
var snapshotKinds = []string{obs.ProfArtifactHeap, obs.ProfArtifactAllocs, obs.ProfArtifactGoroutine}

// cpuGlob is the shell pattern naming a directory's CPU windows.
func cpuGlob(dir string) string { return filepath.Join(dir, "*-"+obs.ProfArtifactCPU+".pb.gz") }

// reportDir prints one profile directory: the manifest header, the CPU
// windows with their time ranges, the snapshot counts by phase, and the
// go tool pprof commands that split the CPU windows by phase label.
func reportDir(w io.Writer, dir string) error {
	m, err := prof.ReadManifest(dir)
	if err != nil {
		return err
	}
	writeHeader(w, dir, m)

	// Times print relative to the earliest artifact.
	var origin int64
	for i, r := range m.Artifacts {
		if i == 0 || r.T0 < origin {
			origin = r.T0
		}
	}
	cpu := m.ByArtifact(obs.ProfArtifactCPU)
	fmt.Fprintf(w, "\ncpu windows: %d\n", len(cpu))
	if len(cpu) > 0 {
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "file\tstart\tend\twall\t")
		for _, r := range cpu {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t\n", r.File,
				formatNanos(r.T0-origin), formatNanos(r.T1-origin), formatNanos(r.T1-r.T0))
		}
		tw.Flush()
	}

	counts := map[string]map[string]int{} // phase -> kind -> snapshots
	var kinds []string
	total := 0
	for _, kind := range snapshotKinds {
		recs := m.ByArtifact(kind)
		if len(recs) > 0 {
			kinds = append(kinds, kind)
		}
		for _, r := range recs {
			if counts[r.Phase] == nil {
				counts[r.Phase] = map[string]int{}
			}
			counts[r.Phase][kind]++
			total++
		}
	}
	fmt.Fprintf(w, "\nsnapshots by phase: %d\n", total)
	if total > 0 {
		phases := make([]string, 0, len(counts))
		for phase := range counts {
			phases = append(phases, phase)
		}
		sortPhases(phases)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintf(tw, "phase\t%s\t\n", strings.Join(kinds, "\t"))
		for _, phase := range phases {
			fmt.Fprintf(tw, "%s\t", phase)
			for _, kind := range kinds {
				fmt.Fprintf(tw, "%d\t", counts[phase][kind])
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}

	if len(cpu) > 0 {
		fmt.Fprintf(w, "\nper-phase cpu: samples carry a %q label\n", prof.PhaseLabel)
		fmt.Fprintf(w, "  go tool pprof -tags %s\n", cpuGlob(dir))
		fmt.Fprintf(w, "  go tool pprof -top -tagfocus=%s=<phase> %s\n", prof.PhaseLabel, cpuGlob(dir))
	}
	return nil
}

// diffDirs prints how the capture environments of two runs differ — the
// caveats a profile comparison comes with — and the go tool pprof
// commands that diff their CPU windows function by function.
func diffDirs(w io.Writer, oldDir, newDir string) error {
	oldM, err := prof.ReadManifest(oldDir)
	if err != nil {
		return err
	}
	newM, err := prof.ReadManifest(newDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "profile diff: %s -> %s\n", oldDir, newDir)
	fmt.Fprintf(w, "run %s -> %s\n", oldM.Header.RunID, newM.Header.RunID)
	for _, warn := range envDrift(oldM.Header, newM.Header) {
		fmt.Fprintf(w, "warning: %s\n", warn)
	}
	fmt.Fprintf(w, "\nfunction cpu deltas (merge the baseline windows, then diff; add -tagfocus=%s=<phase> for one phase):\n", prof.PhaseLabel)
	fmt.Fprintf(w, "  go tool pprof -proto %s > base.pb.gz\n", cpuGlob(oldDir))
	fmt.Fprintf(w, "  go tool pprof -top -diff_base base.pb.gz %s\n", cpuGlob(newDir))
	return nil
}

// envDrift lists environment differences between two manifest headers —
// the caveats a profile comparison comes with.
func envDrift(old, new prof.Record) []string {
	var out []string
	if old.Go != new.Go {
		out = append(out, fmt.Sprintf("go version differs: %s -> %s", old.Go, new.Go))
	}
	if old.GOOS != new.GOOS || old.GOARCH != new.GOARCH {
		out = append(out, fmt.Sprintf("platform differs: %s/%s -> %s/%s",
			old.GOOS, old.GOARCH, new.GOOS, new.GOARCH))
	}
	if old.GOMAXPROCS != new.GOMAXPROCS {
		out = append(out, fmt.Sprintf("gomaxprocs differs: %d -> %d", old.GOMAXPROCS, new.GOMAXPROCS))
	}
	return out
}

// reportBundle renders a postmortem bundle: what tripped the recorder,
// the process state at dump time, and the tail of the flight-recorder
// ring leading up to the trigger.
func reportBundle(w io.Writer, dir string, n int) error {
	meta, err := blackbox.ReadMeta(dir)
	if err != nil {
		return fmt.Errorf("not a complete bundle (missing %s): %w", blackbox.MetaName, err)
	}
	fmt.Fprintf(w, "postmortem bundle: %s\n", dir)
	fmt.Fprintf(w, "reason: %s\n", meta.Reason)
	if tr := meta.Trigger; tr != nil {
		fmt.Fprintf(w, "trigger: %s", tr.Kind)
		if tr.Name != "" {
			fmt.Fprintf(w, " name=%s", tr.Name)
		}
		if tr.Doc != 0 {
			fmt.Fprintf(w, " doc=%d", tr.Doc)
		}
		if tr.Val != 0 {
			fmt.Fprintf(w, " val=%g", tr.Val)
		}
		if tr.Limit != 0 {
			fmt.Fprintf(w, " limit=%g", tr.Limit)
		}
		fmt.Fprintf(w, " seq=%d\n", tr.Seq)
	}
	if meta.RunID != "" {
		fmt.Fprintf(w, "run: %s\n", meta.RunID)
	}
	if meta.Fingerprint != "" {
		fmt.Fprintf(w, "fingerprint: %s\n", meta.Fingerprint)
	}
	if meta.T != 0 {
		fmt.Fprintf(w, "time: %s\n", time.Unix(0, meta.T).UTC().Format(time.RFC3339Nano))
	}
	fmt.Fprintf(w, "process: %s pid %d\n", meta.Go, meta.PID)
	fmt.Fprintf(w, "ring: %d events recorded, %d dropped\n", meta.Events, meta.Dropped)

	var rt struct {
		Goroutines int    `json:"goroutines"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		HeapAlloc  int64  `json:"heap_alloc_bytes"`
		HeapSys    int64  `json:"heap_sys_bytes"`
		NumGC      uint32 `json:"num_gc"`
	}
	if data, err := os.ReadFile(filepath.Join(dir, "runtime.json")); err == nil {
		if err := json.Unmarshal(data, &rt); err == nil {
			fmt.Fprintf(w, "runtime: %d goroutines, heap %s (%s sys), %d GCs, gomaxprocs %d\n",
				rt.Goroutines, formatBytes(rt.HeapAlloc),
				formatBytes(rt.HeapSys), rt.NumGC, rt.GOMAXPROCS)
		}
	}

	var spans []struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
	}
	if data, err := os.ReadFile(filepath.Join(dir, "spans.json")); err == nil {
		json.Unmarshal(data, &spans)
	}
	if len(spans) > 0 {
		fmt.Fprintln(w, "\nactive spans at dump:")
		depth := map[int64]int{}
		for _, s := range spans {
			depth[s.ID] = depth[s.Parent] + 1
			fmt.Fprintf(w, "%s%s (span %d)\n", strings.Repeat("  ", depth[s.ID]), s.Name, s.ID)
		}
	}

	if decisions := readEventsFile(filepath.Join(dir, "decisions.jsonl")); len(decisions) > 0 {
		fmt.Fprintf(w, "\nlast %d detector decisions:\n", len(decisions))
		for _, e := range decisions {
			fired := ""
			if e.Fired {
				fired = "  FIRED"
			}
			fmt.Fprintf(w, "  seq %d  %s val=%g%s\n", e.Seq, e.Name, e.Val, fired)
		}
	}

	if events := readEventsFile(filepath.Join(dir, "events.jsonl")); len(events) > 0 {
		tail := events
		if len(tail) > n {
			tail = tail[len(tail)-n:]
		}
		fmt.Fprintf(w, "\nlast %d of %d ring events:\n", len(tail), len(events))
		for _, e := range tail {
			fmt.Fprintf(w, "  seq %d  %s", e.Seq, e.Kind)
			if e.Name != "" {
				fmt.Fprintf(w, " name=%s", e.Name)
			}
			if e.Doc != 0 {
				fmt.Fprintf(w, " doc=%d", e.Doc)
			}
			if e.N != 0 {
				fmt.Fprintf(w, " n=%d", e.N)
			}
			fmt.Fprintln(w)
		}
	}

	if data, err := os.ReadFile(filepath.Join(dir, "goroutines.txt")); err == nil {
		fmt.Fprintf(w, "\ngoroutine dump: %d goroutines (goroutines.txt)\n",
			strings.Count(string(data), "goroutine "))
		// Show the first stanza — the goroutine that triggered the dump.
		if stanza, _, ok := strings.Cut(string(data), "\n\n"); ok {
			fmt.Fprintln(w, stanza)
		}
	}
	return nil
}

func readEventsFile(path string) []obs.Event {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	events, _ := obs.ReadEventsPartial(f)
	return events
}
