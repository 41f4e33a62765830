package pipeline

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenJournal asserts the lenient journal loader never panics on
// arbitrary file contents — torn tails, binary garbage, corrupted JSON —
// and that its truncation repair is idempotent: whatever OpenJournal
// accepts once (and repairs), it must accept again with the same
// records. Seed inputs live in testdata/fuzz/FuzzOpenJournal.
func FuzzOpenJournal(f *testing.F) {
	header := `{"kind":"header","v":1,"fp":"fuzz"}` + "\n"
	f.Add([]byte(header))
	f.Add([]byte(header + `{"kind":"doc","doc":1,"useful":true,"tuples":[{"rel":"PO","a1":"a","a2":"b"}]}` + "\n"))
	f.Add([]byte(header + `{"kind":"skip","doc":2,"reason":"poisoned"}` + "\n" +
		`{"kind":"snap","pos":10,"nnz":3,"csum":123,"arith":1}` + "\n"))
	f.Add([]byte(header + `{"kind":"doc","doc":3,"use`)) // torn tail
	f.Add([]byte(header + `{"kind":"doc","doc":4}` + "\r\n"))
	f.Add([]byte(header + `{"kind":"future-kind","x":1}` + "\n"))
	f.Add([]byte(header + `{"kind":"doc","doc":5,"tuples":[{"rel":"XX","a1":"","a2":""}]}` + "\n"))
	f.Add([]byte(`{"kind":"header","v":9,"fp":"fuzz"}` + "\n")) // wrong version
	f.Add([]byte(`{"kind":"doc","doc":1}` + "\n"))              // no header
	f.Add([]byte("not json"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, "fuzz")
		if err != nil {
			return
		}
		entries := j.Entries()
		if err := j.Close(); err != nil {
			t.Fatalf("close after accepting input: %v", err)
		}
		// Idempotence: the repaired file must load again, unchanged.
		j2, err := OpenJournal(path, "fuzz")
		if err != nil {
			t.Fatalf("repaired journal rejected on reopen: %v", err)
		}
		if j2.Entries() != entries {
			t.Fatalf("reopen changed entries: %d -> %d", entries, j2.Entries())
		}
		j2.Close()
	})
}
