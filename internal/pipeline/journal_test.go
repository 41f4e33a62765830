package pipeline

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/relation"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "run.journal")
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	tuples := []relation.Tuple{
		{Rel: relation.PO, Arg1: "alice", Arg2: "acme"},
		{Rel: relation.PO, Arg1: "bob", Arg2: "globex"},
	}
	j.RecordDoc(0, true, tuples)
	j.RecordDoc(1, false, nil)
	j.RecordSkip(7, "poisoned")
	if err := j.CheckSnapshot(42, 13, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenJournal(path, "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := r.Entries(); n != 3 {
		t.Fatalf("Entries = %d, want 3", n)
	}
	e, ok := r.Lookup(0)
	if !ok || !e.Useful || len(e.Tuples) != 2 || e.Tuples[1].Arg1 != "bob" {
		t.Fatalf("doc 0 entry = %+v ok=%v", e, ok)
	}
	if e, ok := r.Lookup(1); !ok || e.Useful || e.Skipped {
		t.Fatalf("doc 1 entry = %+v ok=%v", e, ok)
	}
	if e, ok := r.Lookup(7); !ok || !e.Skipped || e.Reason != "poisoned" {
		t.Fatalf("doc 7 entry = %+v ok=%v", e, ok)
	}
	// Matching replayed snapshot passes; a diverging one is an error.
	if err := r.CheckSnapshot(42, 13, 0xdeadbeef); err != nil {
		t.Fatalf("matching snapshot rejected: %v", err)
	}
	if err := r.CheckSnapshot(42, 13, 0xbadf00d); err == nil {
		t.Fatal("diverging snapshot accepted")
	}
}

func TestJournalFingerprintMismatch(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, "fp-a")
	if err != nil {
		t.Fatal(err)
	}
	j.RecordDoc(3, true, nil)
	j.Close()
	if _, err := OpenJournal(path, "fp-b"); err == nil ||
		!strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("err = %v, want fingerprint mismatch", err)
	}
}

func TestJournalTornTailIsRepaired(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	j.RecordDoc(0, true, []relation.Tuple{{Rel: relation.ND, Arg1: "quake", Arg2: "lima"}})
	j.RecordDoc(1, false, nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a SIGKILL mid-write: append half a record.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := `{"kind":"doc","doc":2,"use`
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	r, err := OpenJournal(path, "fp")
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if n := r.Entries(); n != 2 {
		t.Fatalf("Entries = %d, want 2 (torn record dropped)", n)
	}
	// The tail must have been physically truncated so appends are clean.
	r.RecordDoc(2, true, nil)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size()+int64(len(torn)) {
		t.Fatalf("torn bytes not removed: size %d -> %d", before.Size(), after.Size())
	}
	r2, err := OpenJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if e, ok := r2.Lookup(2); !ok || !e.Useful {
		t.Fatalf("record appended after repair not readable: %+v ok=%v", e, ok)
	}
}

func TestJournalMidFileCorruptionIsFatal(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	j.RecordDoc(0, true, nil)
	j.Close()
	data, _ := os.ReadFile(path)
	corrupted := strings.Replace(string(data), `"kind":"doc"`, `"kind":"doc`, 1) +
		`{"kind":"doc","doc":9}` + "\n"
	os.WriteFile(path, []byte(corrupted), 0o644)
	if _, err := OpenJournal(path, "fp"); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// oldJournal is the head of a journal written before snapshots carried
// their model arithmetic: a header and two extraction outcomes.
const oldJournal = `{"kind":"header","v":1,"fp":"fp"}` + "\n" +
	`{"kind":"doc","doc":1,"useful":true,"tuples":[{"rel":"PC","a1":"a","a2":"b"}]}` + "\n" +
	`{"kind":"doc","doc":2}` + "\n"

func TestJournalRefusesOtherModelArithmetic(t *testing.T) {
	for name, snap := range map[string]string{
		"unversioned":           `{"kind":"snap","pos":10,"nnz":3,"csum":123}`,
		"newer":                 fmt.Sprintf(`{"kind":"snap","pos":10,"nnz":3,"csum":123,"arith":%d}`, ModelArithmetic+1),
		"unversioned, mid-file": `{"kind":"snap","pos":10,"nnz":3,"csum":123}` + "\n" + `{"kind":"doc","doc":3}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := journalPath(t)
			if err := os.WriteFile(path, []byte(oldJournal+snap+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenJournal(path, "fp"); !errors.Is(err, ErrModelArithmetic) {
				t.Fatalf("err = %v, want ErrModelArithmetic", err)
			}
		})
	}
}

// TestJournalWithoutSnapshotsResumesAcrossModelArithmetic resumes a
// journal written before the version existed: with no snapshot it holds
// nothing the arithmetic decides, so it loads, and the snapshots this
// build adds keep it resumable.
func TestJournalWithoutSnapshotsResumesAcrossModelArithmetic(t *testing.T) {
	path := journalPath(t)
	if err := os.WriteFile(path, []byte(oldJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	if n := j.Entries(); n != 2 {
		t.Fatalf("Entries = %d, want 2", n)
	}
	if err := j.CheckSnapshot(10, 3, 123); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenJournal(path, "fp")
	if err != nil {
		t.Fatalf("journal extended by this build refused: %v", err)
	}
	defer r.Close()
	if err := r.CheckSnapshot(10, 3, 123); err != nil {
		t.Fatal(err)
	}
}

func TestJournalDedupesRereplayedRecords(t *testing.T) {
	path := journalPath(t)
	j, err := CreateJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		j.RecordDoc(0, true, nil) // replay writes the same doc repeatedly
		j.RecordSkip(0, "poisoned")
	}
	j.Close()
	data, _ := os.ReadFile(path)
	if n := strings.Count(string(data), "\n"); n != 2 { // header + one doc
		t.Fatalf("journal lines = %d, want 2", n)
	}
}

func TestJournalResumeMissingFileStartsFresh(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	j.RecordDoc(1, true, nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenJournal(path, "fp")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Lookup(1); !ok {
		t.Fatal("record lost across fresh-start journal")
	}
}

func TestSaveLoadLabels(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.journal")
	src := &Labels{
		rel:    relation.DO,
		useful: make([]bool, 10),
		tuples: make(map[corpus.DocID][]relation.Tuple),
	}
	src.useful[2] = true
	src.tuples[2] = []relation.Tuple{{Rel: relation.DO, Arg1: "flu", Arg2: "2009"}}
	src.useful[5] = true
	src.tuples[5] = []relation.Tuple{{Rel: relation.DO, Arg1: "ebola", Arg2: "2014"}}
	src.numUseful = 2

	if err := SaveLabels(path, "labels-fp", src); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLabels(path, "labels-fp", relation.DO, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumUseful() != 2 || !got.Useful(2) || !got.Useful(5) || got.Useful(3) {
		t.Fatalf("loaded labels wrong: numUseful=%d", got.NumUseful())
	}
	if ts := got.Tuples(5); len(ts) != 1 || ts[0].Arg1 != "ebola" {
		t.Fatalf("tuples for doc 5 = %v", ts)
	}
	if _, err := LoadLabels(path, "other-fp", relation.DO, 10); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
}

// LoadLabels on a missing file must error, not inherit OpenJournal's
// create-on-missing resume semantics: an empty label cache would mark
// every document useless.
func TestLoadLabelsMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.journal")
	if _, err := LoadLabels(path, "labels-fp", relation.DO, 10); err == nil {
		t.Fatal("missing label cache loaded as empty labels")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed load left a file behind")
	}
}
