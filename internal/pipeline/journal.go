package pipeline

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/durable"
	"adaptiverank/internal/relation"
)

// journalVersion is bumped when the record format changes incompatibly.
const journalVersion = 1

// journalLabel names the journal artifact in durable kill points and
// error messages ("journal:append-torn" is the chaos harness's favourite
// place to die).
const journalLabel = "journal"

// ModelArithmetic versions the floating-point arithmetic of training:
// every journaled snapshot hashes weights produced under one version,
// and a build under another cannot reproduce them. Bump it in the change
// that replaces TestModelTrajectoryDigest's constants.
const ModelArithmetic = 2

// ErrResumeDiverged marks a resumed run whose replayed model state does
// not match the journal's snapshot: the result would silently differ
// from the interrupted run, so the pipeline aborts instead.
var ErrResumeDiverged = errors.New("pipeline: resume diverged")

// ErrModelArithmetic marks a journal holding snapshots hashed under a
// different ModelArithmetic than this build's. They can never match a
// replay, so OpenJournal refuses the journal before anything is
// replayed.
var ErrModelArithmetic = errors.New("pipeline: journal snapshots were hashed under another build's model arithmetic: delete the journal to start over")

// journalRecord is the JSONL wire format of one run-journal line. The
// journal is an append-only account of everything a run learned the hard
// way — per-document extraction outcomes, permanent skips, and model
// snapshots at updates — written record-at-a-time through durable.JSONL
// so a SIGKILL at any instant loses at most the final, partially written
// line (which the lenient loader drops, per durable.ScanTornTail).
type journalRecord struct {
	// Kind is "header", "doc", "skip", or "snap".
	Kind string `json:"kind"`
	// V and FP are carried by the header: format version and the run
	// fingerprint the journal belongs to.
	V  int    `json:"v,omitempty"`
	FP string `json:"fp,omitempty"`
	// Doc, Useful, and Tuples describe one extraction outcome ("doc"),
	// or the skipped document and reason ("skip").
	Doc    int64          `json:"doc,omitempty"`
	Useful bool           `json:"useful,omitempty"`
	Tuples []journalTuple `json:"tuples,omitempty"`
	Reason string         `json:"reason,omitempty"`
	// Pos, NNZ, Sum, and Arith describe one model snapshot ("snap"): the
	// ranked-document position of the update, the model support size, an
	// order-independent hash of the weight vector, and the ModelArithmetic
	// the hash was taken under (absent, so 0, before it was recorded).
	// Each snapshot carries its own version because a journal resumed by
	// a newer build gains snapshots from that build.
	Pos   int    `json:"pos,omitempty"`
	NNZ   int    `json:"nnz,omitempty"`
	Sum   uint64 `json:"csum,omitempty"`
	Arith int    `json:"arith,omitempty"`
}

type journalTuple struct {
	Rel  string `json:"rel"`
	Arg1 string `json:"a1"`
	Arg2 string `json:"a2"`
}

func toJournalTuples(ts []relation.Tuple) []journalTuple {
	if len(ts) == 0 {
		return nil
	}
	out := make([]journalTuple, len(ts))
	for i, t := range ts {
		out[i] = journalTuple{Rel: t.Rel.Code(), Arg1: t.Arg1, Arg2: t.Arg2}
	}
	return out
}

func fromJournalTuples(ts []journalTuple) ([]relation.Tuple, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	out := make([]relation.Tuple, len(ts))
	for i, t := range ts {
		rel, err := relation.Parse(t.Rel)
		if err != nil {
			return nil, err
		}
		out[i] = relation.Tuple{Rel: rel, Arg1: t.Arg1, Arg2: t.Arg2}
	}
	return out, nil
}

// JournalEntry is the recorded final outcome for one document.
type JournalEntry struct {
	// Useful and Tuples are the extraction outcome (Skipped == false).
	Useful bool
	Tuples []relation.Tuple
	// Skipped marks a document the run permanently dropped, with the
	// reason ("poisoned", "requeue-limit", ...).
	Skipped bool
	Reason  string
}

type snapshotRecord struct {
	NNZ int
	Sum uint64
}

// Journal is the crash-safe run journal backing -checkpoint/-resume,
// built on durable.JSONL: every Record* call appends one JSON line and
// flushes it to the kernel before returning, so a killed process loses
// at most the line being written. Records are deduplicated per document:
// replaying a resumed run over already-journaled documents appends
// nothing.
//
// All methods are safe on a nil *Journal (they no-op), so the pipeline
// can thread an optional journal without nil checks, in the style of
// obs.Registry.
type Journal struct {
	mu    sync.Mutex
	jl    *durable.JSONL
	docs  map[corpus.DocID]JournalEntry
	snaps map[int]snapshotRecord
	// checked marks snapshot positions that this session recorded or
	// verified via CheckSnapshot: a completed resume that leaves loaded
	// snapshots unchecked took a different path than the original run.
	checked map[int]bool
	path    string
}

func newJournal(path string) *Journal {
	return &Journal{
		path:    path,
		docs:    make(map[corpus.DocID]JournalEntry),
		snaps:   make(map[int]snapshotRecord),
		checked: make(map[int]bool),
	}
}

// CreateJournal creates (truncating) a fresh journal at path for the run
// identified by fingerprint.
func CreateJournal(path, fingerprint string) (*Journal, error) {
	jl, err := durable.CreateJSONL(nil, path, journalLabel)
	if err != nil {
		return nil, fmt.Errorf("pipeline: create journal: %w", err)
	}
	j := newJournal(path)
	j.jl = jl
	if err := j.append(journalRecord{Kind: "header", V: journalVersion, FP: fingerprint}); err != nil {
		jl.Close()
		return nil, err
	}
	return j, nil
}

// OpenJournal opens the journal at path for resuming: existing records
// are loaded leniently (a truncated final line — the signature of a
// killed writer — is dropped and the file is repaired by truncating to
// the last complete record), the header fingerprint is validated against
// the resuming run's, and the file is positioned for appending. A
// missing file starts a fresh journal, so -resume also works on the
// first run.
func OpenJournal(path, fingerprint string) (*Journal, error) {
	f, err := durable.OS.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return CreateJournal(path, fingerprint)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: open journal: %w", err)
	}
	j := newJournal(path)
	goodEnd, empty, err := j.load(f, fingerprint)
	if err != nil {
		f.Close()
		return nil, err
	}
	if empty {
		// An existing zero-byte file: the truncating create path writes
		// the fresh header for us.
		f.Close()
		return CreateJournal(path, fingerprint)
	}
	// Repair a torn tail before appending: anything past the last
	// complete record is the debris of the killed write.
	if err := f.Truncate(goodEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("pipeline: repair journal tail: %w", err)
	}
	if _, err := f.Seek(goodEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("pipeline: seek journal: %w", err)
	}
	j.jl = durable.Adopt(f, journalLabel)
	return j, nil
}

// load parses the journal under the durable.ScanTornTail contract and
// returns the byte offset just past the last complete record. A
// malformed final line is truncation and is dropped; a malformed record
// with complete records after it is corruption and is an error; a wrong
// header (version or fingerprint) is fatal wherever it sits, and so is a
// snapshot from another model arithmetic.
func (j *Journal) load(f durable.File, fingerprint string) (goodEnd int64, empty bool, err error) {
	data, err := io.ReadAll(f)
	if err != nil {
		return 0, false, fmt.Errorf("pipeline: read journal: %w", err)
	}
	if len(data) == 0 {
		return 0, true, nil
	}
	sawHeader := false
	foreign := false // a snapshot hashed under another ModelArithmetic
	goodEnd, err = durable.ScanTornTail(data, func(line int, raw []byte) error {
		var r journalRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			return fmt.Errorf("pipeline: journal record %d: %w", line, err)
		}
		if r.Kind == "" {
			return fmt.Errorf("pipeline: journal record %d: missing kind", line)
		}
		if !sawHeader {
			if r.Kind != "header" {
				return durable.Fatal(fmt.Errorf("pipeline: journal record %d: want header, got %q", line, r.Kind))
			}
			if r.V != journalVersion {
				return durable.Fatal(fmt.Errorf("pipeline: journal version %d, want %d", r.V, journalVersion))
			}
			if r.FP != fingerprint {
				return durable.Fatal(fmt.Errorf("pipeline: journal fingerprint mismatch: journal is for %q, run is %q", r.FP, fingerprint))
			}
			sawHeader = true
			return nil
		}
		switch r.Kind {
		case "doc":
			ts, terr := fromJournalTuples(r.Tuples)
			if terr != nil {
				return fmt.Errorf("pipeline: journal record %d: %w", line, terr)
			}
			j.docs[corpus.DocID(r.Doc)] = JournalEntry{Useful: r.Useful, Tuples: ts}
		case "skip":
			j.docs[corpus.DocID(r.Doc)] = JournalEntry{Skipped: true, Reason: r.Reason}
		case "snap":
			foreign = foreign || r.Arith != ModelArithmetic
			j.snaps[r.Pos] = snapshotRecord{NNZ: r.NNZ, Sum: r.Sum}
		default:
			// Unknown record kinds from a newer writer are skipped, not
			// fatal: the journal only ever gains record kinds.
		}
		return nil
	})
	if err != nil {
		return 0, false, err
	}
	if !sawHeader {
		// Only a torn header line, blank lines, or dropped debris: the
		// journal recorded no work and cannot be trusted to resume.
		return 0, false, fmt.Errorf("pipeline: journal has no complete header (torn first write?): delete %s to start over", j.path)
	}
	if foreign {
		return 0, false, ErrModelArithmetic
	}
	return goodEnd, false, nil
}

// append journals one record, flushed through to the kernel.
func (j *Journal) append(r journalRecord) error {
	return j.jl.Append(r)
}

// Lookup returns the recorded outcome for id, if any.
func (j *Journal) Lookup(id corpus.DocID) (JournalEntry, bool) {
	if j == nil {
		return JournalEntry{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.docs[id]
	return e, ok
}

// RecordDoc journals one extraction outcome. Re-recording a document
// (the replay path of a resumed run) is a no-op.
func (j *Journal) RecordDoc(id corpus.DocID, useful bool, tuples []relation.Tuple) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.docs[id]; ok {
		return
	}
	j.docs[id] = JournalEntry{Useful: useful, Tuples: tuples}
	j.append(journalRecord{Kind: "doc", Doc: int64(id), Useful: useful, Tuples: toJournalTuples(tuples)})
}

// RecordSkip journals one permanently dropped document.
func (j *Journal) RecordSkip(id corpus.DocID, reason string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.docs[id]; ok {
		return
	}
	j.docs[id] = JournalEntry{Skipped: true, Reason: reason}
	j.append(journalRecord{Kind: "skip", Doc: int64(id), Reason: reason})
}

// CheckSnapshot journals a model snapshot at a ranked-document position,
// or — when the position was already journaled by the interrupted run —
// verifies the replayed model against it. A mismatch means the resumed
// run diverged from the original (different code, corpus, or fault
// outcomes) and the result would silently differ; the pipeline aborts
// instead.
func (j *Journal) CheckSnapshot(pos, nnz int, sum uint64) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if prev, ok := j.snaps[pos]; ok {
		if prev.NNZ != nnz || prev.Sum != sum {
			return fmt.Errorf("%w at position %d: journal snapshot nnz=%d csum=%x, replay nnz=%d csum=%x",
				ErrResumeDiverged, pos, prev.NNZ, prev.Sum, nnz, sum)
		}
		j.checked[pos] = true
		return nil
	}
	j.snaps[pos] = snapshotRecord{NNZ: nnz, Sum: sum}
	j.checked[pos] = true
	return j.append(journalRecord{Kind: "snap", Pos: pos, NNZ: nnz, Sum: sum, Arith: ModelArithmetic})
}

// UncheckedSnapshots returns journaled snapshot positions at or below
// maxPos that this session neither verified nor recorded: a completed
// resume that skipped past one updated its model at different positions
// than the interrupted run, which is divergence even if no colliding
// snapshot caught it.
func (j *Journal) UncheckedSnapshots(maxPos int) []int {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []int
	//lint:allow detrand collection order is erased by the sort below
	for pos := range j.snaps {
		if pos <= maxPos && !j.checked[pos] {
			out = append(out, pos)
		}
	}
	sort.Ints(out)
	return out
}

// Entries reports how many documents the journal has outcomes for.
func (j *Journal) Entries() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.docs)
}

// Path returns the journal's file path ("" on a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Err returns the first write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	return j.jl.Err()
}

// Close syncs the journal to stable storage and closes the file,
// returning the first error seen over the journal's lifetime. Repeated
// calls are no-ops.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.jl.Close()
}

// SaveLabels persists precomputed oracle labels as a journal file (the
// same header + doc-record format the run journal uses), so expensive
// whole-collection label computations survive process restarts — the
// experiments suite's checkpoint.
func SaveLabels(path, fingerprint string, l *Labels) error {
	j, err := CreateJournal(path, fingerprint)
	if err != nil {
		return err
	}
	for id := 0; id < l.Len(); id++ {
		did := corpus.DocID(id)
		if l.Useful(did) {
			j.RecordDoc(did, true, l.Tuples(did))
		}
	}
	return j.Close()
}

// LoadLabels restores labels saved by SaveLabels, validating the
// fingerprint. Documents without a journal record are useless (only
// useful documents are persisted); collLen sizes the label table. A
// missing file is an error — unlike a -resume journal, a label cache
// must never silently start empty, or every document would read as
// useless.
func LoadLabels(path, fingerprint string, rel relation.Relation, collLen int) (*Labels, error) {
	if _, err := os.Stat(path); err != nil {
		return nil, fmt.Errorf("pipeline: load labels: %w", err)
	}
	j, err := OpenJournal(path, fingerprint)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	l := &Labels{
		rel:    rel,
		useful: make([]bool, collLen),
		tuples: make(map[corpus.DocID][]relation.Tuple),
	}
	for id, e := range j.docs {
		if e.Skipped || !e.Useful {
			continue
		}
		if int(id) < 0 || int(id) >= collLen {
			return nil, fmt.Errorf("pipeline: label journal doc %d out of range [0,%d)", id, collLen)
		}
		l.useful[id] = true
		l.tuples[id] = e.Tuples
		l.numUseful++
	}
	return l, nil
}
