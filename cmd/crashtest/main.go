// Command crashtest is the crash-consistency chaos harness: it
// enumerates the kill points registered inside internal/durable's write
// paths, runs the real extraction pipeline, kills it at each point, and
// verifies the recovery contract every reader documents:
//
//   - resuming from the journal yields a result byte-identical to an
//     uninterrupted run of the same configuration;
//   - JSONL readers (explain log, profile manifest) drop exactly the
//     torn tail a mid-append death leaves behind;
//   - a black-box bundle without its meta.json completeness marker is
//     ignored by readers;
//   - no reader ever observes a half-written whole-file artifact
//     (result/bench/corpus dumps).
//
// Three attack modes, all run by default:
//
//	panic  in-process writer-level matrix: every (writer shape, site)
//	       pair is armed with KillModePanic and driven directly against
//	       the durable writers, with recovery verified on the survivors;
//	kill   subprocess pipeline matrix: crashtest re-execs itself as a
//	       child (-child) with ADAPTIVERANK_KILL_* set, the child arms
//	       the point via durable.ArmFromEnv and SIGKILLs itself when a
//	       real write reaches it — the closest in-process stand-in for
//	       power loss — and the parent then resumes from the journal;
//	fault  seeded faultfs soak: the writer shapes run against a
//	       deterministic disk-fault schedule (short writes, ENOSPC, EIO
//	       on fsync) and every failure must leave readable state. A
//	       failure prints the fault seed that reproduces it.
//
// Exit status is 0 when every case passes, 1 otherwise.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"adaptiverank"
	"adaptiverank/internal/durable"
	"adaptiverank/internal/durable/faultfs"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/obs/blackbox"
	"adaptiverank/internal/obs/explain"
	"adaptiverank/internal/obs/prof"
	"adaptiverank/internal/obs/sinks"
)

func main() {
	// The child arms its kill point from the environment, exactly like
	// the production CLIs do; a no-op in the parent.
	durable.ArmFromEnv()
	os.Exit(run())
}

var (
	docs        = flag.Int("docs", 300, "corpus size for the pipeline kill matrix")
	seed        = flag.Int64("seed", 42, "corpus and run seed")
	strategies  = flag.String("strategies", "rsvm,bagg", "comma-separated ranking strategies for the kill matrix")
	mode        = flag.String("mode", "all", "which matrices to run: all, panic, kill, fault")
	pointFilter = flag.String("points", "", "only run kill-matrix cases whose label:site contains this substring")
	workDir     = flag.String("dir", "", "working directory for artifacts (default: a temp dir)")
	keep        = flag.Bool("keep", false, "keep the working directory after a passing run")
	faultSeed   = flag.Int64("fault-seed", 1, "base seed for the faultfs soak (round i uses fault-seed+i)")
	faultRounds = flag.Int("fault-rounds", 6, "number of faultfs soak rounds")
	verbose     = flag.Bool("v", false, "log every case, not just failures")

	// Child-mode flags, set by the parent on re-exec.
	child         = flag.Bool("child", false, "internal: run one pipeline pass as a kill-target child")
	childStrategy = flag.String("strategy", "rsvm", "internal: child ranking strategy")
	childCkpt     = flag.String("ckpt", "", "internal: child journal path")
	childResume   = flag.Bool("resume", false, "internal: child resumes from -ckpt")
	childResult   = flag.String("result", "", "internal: child result JSON path")
	childExplain  = flag.String("explain-dir", "", "internal: child explain artifact directory")
	childProf     = flag.String("prof-dir", "", "internal: child profile directory")
	childBlackbox = flag.String("blackbox-dir", "", "internal: child black-box directory")
	childDump     = flag.Bool("dump-blackbox", false, "internal: child dumps a postmortem bundle after the run")
)

func run() int {
	flag.Parse()
	if *child {
		return runChild()
	}

	dir := *workDir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "crashtest-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "crashtest:", err)
			return 1
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "crashtest:", err)
		return 1
	}

	h := &harness{dir: dir}
	start := time.Now() //lint:allow detrand elapsed-time telemetry only; never feeds case selection
	if *mode == "all" || *mode == "panic" {
		h.panicMatrix()
	}
	if *mode == "all" || *mode == "kill" {
		h.killMatrix()
	}
	if *mode == "all" || *mode == "fault" {
		h.faultSoak()
	}

	//lint:allow detrand elapsed-time telemetry only; never feeds case selection
	fmt.Printf("crashtest: %d case(s), %d failure(s) in %v\n", h.cases, h.failures, time.Since(start).Round(time.Millisecond))
	if h.failures > 0 {
		fmt.Printf("crashtest: artifacts kept in %s\n", dir)
		return 1
	}
	if !*keep && *workDir == "" {
		os.RemoveAll(dir)
	}
	return 0
}

// harness counts cases and failures and owns the working directory.
type harness struct {
	dir      string
	cases    int
	failures int
}

func (h *harness) failf(format string, args ...any) {
	h.failures++
	fmt.Printf("FAIL: "+format+"\n", args...)
}

func (h *harness) logf(format string, args ...any) {
	if *verbose {
		fmt.Printf(format+"\n", args...)
	}
}

// ---------------------------------------------------------------------
// Panic matrix: writer-level, in-process.

// killAt runs fn with point armed in panic mode and reports whether the
// injected death fired; any other panic propagates.
func killAt(point string, skip int, fn func()) (killed bool) {
	durable.Arm(point, durable.KillModePanic, skip)
	defer durable.Disarm()
	defer func() {
		if r := recover(); r != nil {
			var k *durable.Killed
			if err, ok := r.(error); ok && errors.As(err, &k) {
				killed = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

type soakRec struct {
	Seq int `json:"seq"`
}

// panicMatrix drives every (writer shape, site) pair directly against
// the durable writers and verifies the documented recovery contract on
// what the death left behind.
func (h *harness) panicMatrix() {
	fmt.Println("crashtest: panic matrix (writer-level, in-process)")
	h.panicJSONL()
	h.panicAtomic()
	h.panicDir()
}

func (h *harness) panicJSONL() {
	const label = "crash-jsonl"
	for _, site := range durable.JSONLSites {
		for _, skip := range []int{0, 2} {
			h.cases++
			point := durable.Point(label, site)
			dir, err := os.MkdirTemp(h.dir, "panic-jsonl-")
			if err != nil {
				h.failf("%s skip=%d: %v", point, skip, err)
				continue
			}
			path := filepath.Join(dir, "records.jsonl")

			// Seed the file with complete records, unarmed.
			jl, err := durable.CreateJSONL(nil, path, label)
			if err != nil {
				h.failf("%s: create: %v", point, err)
				continue
			}
			const preexisting = 4
			for i := 0; i < preexisting; i++ {
				if err := jl.Append(soakRec{Seq: i}); err != nil {
					h.failf("%s: seed append: %v", point, err)
				}
			}
			if err := jl.Close(); err != nil {
				h.failf("%s: seed close: %v", point, err)
				continue
			}

			// Reopen and append under fire until the armed point kills us.
			jl, err = durable.AppendJSONL(nil, path, label)
			if err != nil {
				h.failf("%s: reopen: %v", point, err)
				continue
			}
			appended := 0
			killed := killAt(point, skip, func() {
				for i := 0; i < skip+2; i++ {
					if err := jl.Append(soakRec{Seq: preexisting + i}); err != nil {
						panic(err)
					}
					appended++
				}
			})
			if !killed {
				h.failf("%s skip=%d: kill point never fired", point, skip)
				continue
			}
			// Records committed after reopening: every fully appended one,
			// plus the in-flight record when the death struck after its
			// final flush (append-full) rather than mid-write (append-torn).
			committed := appended
			if site == durable.SiteAppendFull {
				committed++
			}

			// The reader must see exactly the committed records...
			want := preexisting + committed
			if got := h.countRecords(point, path); got != want {
				h.failf("%s skip=%d: reader saw %d records, want %d", point, skip, got, want)
				continue
			}
			// ...and the append-side repair must preserve them and accept
			// a new record after the torn tail is truncated away.
			jl, err = durable.AppendJSONL(nil, path, label)
			if err != nil {
				h.failf("%s skip=%d: repair reopen: %v", point, skip, err)
				continue
			}
			if err := jl.Append(soakRec{Seq: 999}); err != nil {
				h.failf("%s skip=%d: append after repair: %v", point, skip, err)
			}
			if err := jl.Close(); err != nil {
				h.failf("%s skip=%d: close after repair: %v", point, skip, err)
			}
			if got := h.countRecords(point, path); got != want+1 {
				h.failf("%s skip=%d: after repair+append reader saw %d records, want %d", point, skip, got, want+1)
				continue
			}
			h.logf("  ok %s skip=%d (%d committed + repair)", point, skip, want)
		}
	}
}

// countRecords reads a JSONL file under the torn-tail contract and
// returns the number of accepted records (-1 on corruption).
func (h *harness) countRecords(point, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		h.failf("%s: read back: %v", point, err)
		return -1
	}
	n := 0
	if _, err := durable.ScanTornTail(data, func(line int, raw []byte) error {
		var r soakRec
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		n++
		return nil
	}); err != nil {
		h.failf("%s: corrupt survivor file: %v", point, err)
		return -1
	}
	return n
}

func (h *harness) panicAtomic() {
	const label = "crash-atomic"
	oldData := []byte(`{"gen":1}` + "\n")
	newData := []byte(`{"gen":2,"pad":"` + strings.Repeat("x", 256) + `"}` + "\n")
	for _, site := range durable.AtomicSites {
		h.cases++
		point := durable.Point(label, site)
		dir, err := os.MkdirTemp(h.dir, "panic-atomic-")
		if err != nil {
			h.failf("%s: %v", point, err)
			continue
		}
		path := filepath.Join(dir, "artifact.json")
		if err := durable.WriteFileAtomic(nil, path, oldData, 0o644, label); err != nil {
			h.failf("%s: seed write: %v", point, err)
			continue
		}
		killed := killAt(point, 0, func() {
			if err := durable.WriteFileAtomic(nil, path, newData, 0o644, label); err != nil {
				panic(err)
			}
		})
		if !killed {
			h.failf("%s: kill point never fired", point)
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			h.failf("%s: target unreadable after death: %v", point, err)
			continue
		}
		// Before the rename the target must hold the old contents intact;
		// at or after it, the new. Never anything in between.
		want := oldData
		if site == durable.SiteRenamed {
			want = newData
		}
		if !bytes.Equal(got, want) {
			h.failf("%s: target torn: %d bytes, want %d (old=%d new=%d)", point, len(got), len(want), len(oldData), len(newData))
			continue
		}
		// The retry after recovery must land the new contents and clean
		// up the temp debris.
		if err := durable.WriteFileAtomic(nil, path, newData, 0o644, label); err != nil {
			h.failf("%s: rewrite after death: %v", point, err)
			continue
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, newData) {
			h.failf("%s: rewrite did not land", point)
			continue
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			h.failf("%s: temp debris left after successful rewrite", point)
			continue
		}
		h.logf("  ok %s", point)
	}
}

func (h *harness) panicDir() {
	const label = "crash-dir"
	for _, site := range durable.DirSites {
		h.cases++
		point := durable.Point(label, site)
		parent, err := os.MkdirTemp(h.dir, "panic-dir-")
		if err != nil {
			h.failf("%s: %v", point, err)
			continue
		}
		bundleDir := filepath.Join(parent, "bundle-0001-crash")
		killed := killAt(point, 0, func() {
			b, err := durable.CreateDir(nil, bundleDir, label)
			if err != nil {
				panic(err)
			}
			if err := b.WriteFile("data.json", []byte(`{"ok":true}`+"\n")); err != nil {
				panic(err)
			}
			if err := b.Commit("meta.json", []byte(`{"complete":true}`+"\n")); err != nil {
				panic(err)
			}
		})
		if !killed {
			h.failf("%s: kill point never fired", point)
			continue
		}
		_, err = os.Stat(filepath.Join(bundleDir, "meta.json"))
		markerPresent := err == nil
		wantMarker := site == durable.SiteMarkerWritten
		if markerPresent != wantMarker {
			h.failf("%s: marker present=%v, want %v", point, markerPresent, wantMarker)
			continue
		}
		// The reader contract: a directory without the marker is a partial
		// bundle and is skipped.
		complete, err := blackbox.Bundles(parent)
		if err != nil {
			h.failf("%s: Bundles: %v", point, err)
			continue
		}
		if wantMarker && len(complete) != 1 {
			h.failf("%s: complete bundle not listed", point)
			continue
		}
		if !wantMarker && len(complete) != 0 {
			h.failf("%s: partial bundle (no marker) listed as complete", point)
			continue
		}
		h.logf("  ok %s (marker=%v)", point, markerPresent)
	}
}

// ---------------------------------------------------------------------
// Kill matrix: real pipeline, SIGKILL subprocess.

// killCase is one (artifact, site, skip) cell of the pipeline matrix.
type killCase struct {
	label string
	site  string
	skip  int
}

// matrix returns the pipeline kill matrix: every durable write site the
// child process deterministically reaches. prof-metrics is exercised by
// the panic matrix instead (its sampler is timer-driven, so aiming a
// subprocess kill at it would race the run's end).
func matrix() []killCase {
	var cases []killCase
	for _, site := range durable.JSONLSites {
		for _, skip := range []int{0, 5} {
			cases = append(cases, killCase{"journal", site, skip})
		}
		for _, skip := range []int{0, 3} {
			cases = append(cases, killCase{"explain", site, skip})
		}
		cases = append(cases, killCase{"prof-manifest", site, 0})
	}
	for _, site := range durable.AtomicSites {
		cases = append(cases, killCase{"result", site, 0})
	}
	for _, site := range durable.DirSites {
		cases = append(cases, killCase{"blackbox", site, 0})
	}
	return cases
}

func (h *harness) killMatrix() {
	exe, err := os.Executable()
	if err != nil {
		h.failf("kill matrix: %v", err)
		return
	}
	for _, strat := range strings.Split(*strategies, ",") {
		strat = strings.TrimSpace(strat)
		if strat == "" {
			continue
		}
		h.killMatrixStrategy(exe, strat)
	}
}

func (h *harness) killMatrixStrategy(exe, strat string) {
	fmt.Printf("crashtest: kill matrix (SIGKILL subprocess, strategy %s, %d docs)\n", strat, *docs)
	stratDir := filepath.Join(h.dir, "kill-"+strat)
	if err := os.MkdirAll(stratDir, 0o755); err != nil {
		h.failf("%s: %v", strat, err)
		return
	}

	// Reference: an uninterrupted run of the same configuration.
	refPath := filepath.Join(stratDir, "ref.json")
	refCkpt := filepath.Join(stratDir, "ref.ckpt")
	if out, err := h.runChildProc(exe, nil, "-strategy", strat, "-ckpt", refCkpt, "-result", refPath); err != nil {
		h.failf("%s: reference run: %v\n%s", strat, err, out)
		return
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		h.failf("%s: reference result: %v", strat, err)
		return
	}

	for _, kc := range matrix() {
		point := durable.Point(kc.label, kc.site)
		if *pointFilter != "" && !strings.Contains(point, *pointFilter) {
			continue
		}
		h.cases++
		name := fmt.Sprintf("%s-%s-skip%d", kc.label, kc.site, kc.skip)
		caseDir := filepath.Join(stratDir, name)
		if err := os.MkdirAll(caseDir, 0o755); err != nil {
			h.failf("%s/%s: %v", strat, name, err)
			continue
		}
		ckpt := filepath.Join(caseDir, "run.ckpt")
		resultPath := filepath.Join(caseDir, "result.json")

		args := []string{"-strategy", strat, "-ckpt", ckpt, "-result", resultPath}
		switch kc.label {
		case "explain":
			args = append(args, "-explain-dir", filepath.Join(caseDir, "explain"))
		case "prof-manifest":
			args = append(args, "-prof-dir", filepath.Join(caseDir, "prof"))
		case "blackbox":
			args = append(args, "-blackbox-dir", filepath.Join(caseDir, "blackbox"), "-dump-blackbox")
		}
		env := []string{
			durable.EnvKillPoint + "=" + point,
			durable.EnvKillMode + "=" + durable.KillModeKill,
			durable.EnvKillSkip + "=" + fmt.Sprint(kc.skip),
		}
		out, err := h.runChildProc(exe, env, args...)
		if !diedBySIGKILL(err) {
			h.failf("%s/%s: child did not die at the armed point (err=%v)\n%s", strat, name, err, out)
			continue
		}

		if !h.verifyArtifacts(strat, name, kc, caseDir, resultPath, ref) {
			continue
		}
		if !h.verifyResume(exe, strat, name, kc, ckpt, caseDir, ref) {
			continue
		}
		h.logf("  ok %s skip=%d", point, kc.skip)
	}
}

// runChildProc re-execs this binary in child mode with extra env and
// returns combined output.
func (h *harness) runChildProc(exe string, env []string, args ...string) (string, error) {
	cmd := exec.Command(exe, append([]string{"-child", "-docs", fmt.Sprint(*docs), "-seed", fmt.Sprint(*seed)}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// diedBySIGKILL reports whether the child was torn down by the
// self-delivered SIGKILL of an armed kill point.
func diedBySIGKILL(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}

// verifyArtifacts checks the artifact the kill targeted against its
// reader's recovery contract.
func (h *harness) verifyArtifacts(strat, name string, kc killCase, caseDir, resultPath string, ref []byte) bool {
	switch kc.label {
	case "explain":
		_, err := explain.ReadLog(filepath.Join(caseDir, "explain"))
		// The only acceptable error is a torn-away header: the death hit
		// the very first append. Every other partial log must read clean.
		headerTorn := kc.site == durable.SiteAppendTorn && kc.skip == 0
		if err != nil && !(headerTorn && strings.Contains(err.Error(), "no header")) {
			h.failf("%s/%s: partial explain log unreadable: %v", strat, name, err)
			return false
		}
	case "prof-manifest":
		_, err := prof.ReadManifest(filepath.Join(caseDir, "prof"))
		headerTorn := kc.site == durable.SiteAppendTorn && kc.skip == 0
		if err != nil && !(headerTorn && strings.Contains(err.Error(), "no header")) {
			h.failf("%s/%s: partial profile manifest unreadable: %v", strat, name, err)
			return false
		}
	case "result":
		data, err := os.ReadFile(resultPath)
		switch {
		case kc.site == durable.SiteRenamed:
			// The rename landed before the death: the target must hold the
			// complete new contents — byte-identical to the reference.
			if err != nil || !bytes.Equal(data, ref) {
				h.failf("%s/%s: post-rename result not the complete reference (err=%v)", strat, name, err)
				return false
			}
		case err == nil:
			// Before the rename no target may exist at all: a visible
			// half-written result is exactly what atomic writes preclude.
			h.failf("%s/%s: result file visible before rename (%d bytes)", strat, name, len(data))
			return false
		case !os.IsNotExist(err):
			h.failf("%s/%s: result stat: %v", strat, name, err)
			return false
		}
	case "blackbox":
		bdir := filepath.Join(caseDir, "blackbox")
		complete, err := blackbox.Bundles(bdir)
		if err != nil {
			h.failf("%s/%s: Bundles: %v", strat, name, err)
			return false
		}
		if kc.site == durable.SiteMarkerWritten {
			if len(complete) != 1 {
				h.failf("%s/%s: bundle with marker not listed (got %d)", strat, name, len(complete))
				return false
			}
			if _, err := blackbox.ReadMeta(filepath.Join(bdir, complete[0])); err != nil {
				h.failf("%s/%s: complete bundle meta unreadable: %v", strat, name, err)
				return false
			}
		} else {
			if len(complete) != 0 {
				h.failf("%s/%s: marker-less partial bundle listed as complete", strat, name)
				return false
			}
			// The partial bundle directory itself must exist — the death
			// struck mid-dump, after the directory was created.
			entries, err := os.ReadDir(bdir)
			if err != nil || len(entries) == 0 {
				h.failf("%s/%s: expected a partial bundle directory (err=%v)", strat, name, err)
				return false
			}
		}
	}
	return true
}

// verifyResume resumes the killed run from its journal and requires the
// result to be byte-identical to the uninterrupted reference.
func (h *harness) verifyResume(exe, strat, name string, kc killCase, ckpt, caseDir string, ref []byte) bool {
	resumedPath := filepath.Join(caseDir, "resumed.json")
	out, err := h.runChildProc(exe, nil, "-strategy", strat, "-ckpt", ckpt, "-resume", "-result", resumedPath)
	if err != nil {
		// One documented failure: the death tore the journal's very first
		// append, so not even the header committed. The journal tells the
		// operator to delete the file and start over — do that, and the
		// fresh run must still reproduce the reference.
		if strings.Contains(out, "no complete header") {
			if err := os.Remove(ckpt); err != nil {
				h.failf("%s/%s: removing headerless journal: %v", strat, name, err)
				return false
			}
			out, err = h.runChildProc(exe, nil, "-strategy", strat, "-ckpt", ckpt, "-result", resumedPath)
			if err != nil {
				h.failf("%s/%s: fresh run after headerless journal: %v\n%s", strat, name, err, out)
				return false
			}
		} else {
			h.failf("%s/%s: resume failed: %v\n%s", strat, name, err, out)
			return false
		}
	}
	resumed, err := os.ReadFile(resumedPath)
	if err != nil {
		h.failf("%s/%s: resumed result: %v", strat, name, err)
		return false
	}
	if !bytes.Equal(resumed, ref) {
		h.failf("%s/%s: resumed result differs from uninterrupted reference (%d vs %d bytes)", strat, name, len(resumed), len(ref))
		return false
	}
	return true
}

// ---------------------------------------------------------------------
// Faultfs soak: seeded disk-fault schedules against the writer shapes.

func (h *harness) faultSoak() {
	fmt.Printf("crashtest: faultfs soak (%d rounds, base seed %d)\n", *faultRounds, *faultSeed)
	for i := 0; i < *faultRounds; i++ {
		fseed := *faultSeed + int64(i)
		h.cases++
		if h.soakRound(fseed) {
			h.logf("  ok fault seed %d", fseed)
		}
	}
}

// soakRound drives the atomic and JSONL writers through one seeded fault
// schedule. Any invariant violation prints the seed that reproduces it:
//
//	crashtest -mode fault -fault-seed <seed> -fault-rounds 1
func (h *harness) soakRound(fseed int64) bool {
	dir, err := os.MkdirTemp(h.dir, fmt.Sprintf("fault-%d-", fseed))
	if err != nil {
		h.failf("fault seed %d: %v", fseed, err)
		return false
	}
	ffs := faultfs.New(nil, faultfs.Options{
		Seed:           fseed,
		OpenErrRate:    0.02,
		WriteErrRate:   0.05,
		ShortWriteRate: 0.05,
		SyncErrRate:    0.05,
		RenameErrRate:  0.05,
	})
	ok := true

	// Atomic: across generations of writes with injected faults, the
	// target must always hold one complete generation — the latest
	// success, or (when a fault landed after the rename) the very write
	// that reported the error. Never a torn mix.
	target := filepath.Join(dir, "artifact.json")
	last, wrote := []byte(nil), false
	for gen := 0; gen < 40 && ok; gen++ {
		next := []byte(fmt.Sprintf(`{"gen":%d,"pad":%q}`, gen, strings.Repeat("g", 32+gen)))
		err := durable.WriteFileAtomic(ffs, target, next, 0o644, "soak")
		got, readErr := os.ReadFile(target)
		switch {
		case err == nil:
			if readErr != nil || !bytes.Equal(got, next) {
				h.failf("fault seed %d: atomic gen %d reported success but target does not hold it", fseed, gen)
				ok = false
			}
			last, wrote = next, true
		case readErr == nil && bytes.Equal(got, next):
			// Fault after the rename: the new generation landed anyway.
			last, wrote = next, true
		case !wrote && os.IsNotExist(readErr):
			// No successful write yet; no target is acceptable.
		case readErr == nil && wrote && bytes.Equal(got, last):
			// Old generation intact.
		default:
			h.failf("fault seed %d: atomic gen %d left a torn target (err=%v readErr=%v)", fseed, gen, err, readErr)
			ok = false
		}
	}

	// JSONL: append records under fire, healing with AppendJSONL after
	// every writer error. The surviving file must parse clean under the
	// torn-tail contract and contain a strictly increasing subsequence
	// of the appended sequence numbers.
	path := filepath.Join(dir, "records.jsonl")
	var jl *durable.JSONL
	for seq := 0; seq < 60 && ok; seq++ {
		if jl == nil {
			if jl, err = durable.AppendJSONL(ffs, path, "soak"); err != nil {
				jl = nil
				continue // open fault; try again next round
			}
		}
		if err := jl.Append(soakRec{Seq: seq}); err != nil {
			jl.Close()
			jl = nil
		}
	}
	if jl != nil {
		jl.Close()
	}
	if data, err := os.ReadFile(path); err == nil {
		prev := -1
		if _, err := durable.ScanTornTail(data, func(line int, raw []byte) error {
			var r soakRec
			if err := json.Unmarshal(raw, &r); err != nil {
				return err
			}
			if r.Seq <= prev {
				return durable.Fatal(fmt.Errorf("seq %d after %d", r.Seq, prev))
			}
			prev = r.Seq
			return nil
		}); err != nil {
			h.failf("fault seed %d: surviving JSONL corrupt: %v", fseed, err)
			ok = false
		}
	}
	return ok
}

// ---------------------------------------------------------------------
// Child mode: one real pipeline pass, dying at the armed kill point.

// runChild runs one extraction pass with the flags the parent passed.
// The kill point, if any, was armed from the environment in main; the
// self-SIGKILL fires inside whichever durable write reaches it.
func runChild() (code int) {
	coll, err := adaptiverank.GenerateCorpus(*seed, *docs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	ex := adaptiverank.BuiltinExtractor(adaptiverank.PersonCareer)

	opts := adaptiverank.Options{Seed: *seed, Checkpoint: *childCkpt, Resume: *childResume}
	switch *childStrategy {
	case "rsvm":
		opts.Strategy = adaptiverank.RSVMIE
	case "bagg":
		opts.Strategy = adaptiverank.BAggIE
	default:
		fmt.Fprintf(os.Stderr, "child: unknown strategy %q\n", *childStrategy)
		return 2
	}
	fingerprint := adaptiverank.Fingerprint(coll, ex, opts)

	// The child assembles its sinks exactly as the CLIs do, so every kill
	// lands in the code those runs execute.
	obsSinks, err := sinks.Open(context.Background(), sinks.Flags{
		ExplainDir: *childExplain, ProfDir: *childProf, Blackbox: *childBlackbox,
		ProfCPUWindow: 100 * time.Millisecond,
	}, "crashtest", fingerprint, io.Discard)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	defer func() { code = obsSinks.Close(code) }()
	opts.Metrics, opts.Recorder, opts.Explain = obsSinks.Registry, obsSinks.Recorder, obsSinks.Explainer

	res, err := adaptiverank.RunContext(obsSinks.Ctx, coll, ex, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		return 1
	}
	if *childDump && obsSinks.Blackbox != nil {
		if _, err := obsSinks.Blackbox.Dump(obs.DumpReasonManual); err != nil {
			fmt.Fprintln(os.Stderr, "child: blackbox:", err)
			return 1
		}
	}
	if *childResult != "" {
		if err := writeChildResult(*childResult, res); err != nil {
			fmt.Fprintln(os.Stderr, "child: result:", err)
			return 1
		}
	}
	return 0
}

// writeChildResult dumps the deterministic fields of the run outcome;
// the parent diffs these bytes between reference, killed, and resumed
// runs.
func writeChildResult(path string, res *adaptiverank.Result) error {
	type out struct {
		DocsProcessed int                  `json:"docs_processed"`
		UsefulFound   int                  `json:"useful_found"`
		Updates       int                  `json:"updates"`
		Order         []adaptiverank.DocID `json:"order"`
		Tuples        []adaptiverank.Tuple `json:"tuples"`
	}
	b, err := json.MarshalIndent(out{
		DocsProcessed: res.DocsProcessed,
		UsefulFound:   res.UsefulFound,
		Updates:       res.Updates,
		Order:         res.Order,
		Tuples:        res.Tuples,
	}, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFileAtomic(nil, path, append(b, '\n'), 0o644, "result")
}
