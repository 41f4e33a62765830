package explain

import (
	"os"
	"path/filepath"
	"testing"

	"adaptiverank/internal/durable"
)

// FuzzReadExplainLog asserts the explain-log reader never panics on
// arbitrary file contents — torn tails, binary garbage, corrupted JSON,
// unknown record kinds — and that its torn-tail tolerance composes with
// the append-side repair: whatever ReadLog accepts, it must decode
// identically after the durable.RepairTail truncation a restarted
// appender would perform. Seed inputs live in
// testdata/fuzz/FuzzReadExplainLog.
func FuzzReadExplainLog(f *testing.F) {
	header := `{"kind":"header","run_id":"fuzz","fingerprint":"abc","go":"go1.22"}` + "\n"
	snap := `{"kind":"snapshot","stage":"train-init","update":0,"nnz":3,"l1":1.5,"top":[{"index":1,"name":"w","weight":0.5}]}` + "\n"
	attr := `{"kind":"attribution","doc":7,"rank":0,"score":1.25,"members":[{"margin":1.25,"contribs":[{"index":1,"weight":1.25}]}]}` + "\n"
	dec := `{"kind":"decision","detector":"drift","val":0.9,"fired":true,"evidence":[{"key":"z","num":2.5}]}` + "\n"
	f.Add([]byte(header))
	f.Add([]byte(header + snap + attr + dec))
	f.Add([]byte(header + snap + `{"kind":"attribution","doc":9,"sc`)) // torn tail
	f.Add([]byte(header + "not json\n" + dec))                         // corrupt middle
	f.Add([]byte(snap))                                                // no header
	f.Add([]byte(header + `{"kind":"future-kind","x":1}` + "\n"))      // unknown kind: fatal
	f.Add([]byte(header + dec + "\r\n"))
	f.Add([]byte("not json"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, LogName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := ReadLog(dir)
		if err != nil {
			return
		}
		if l.Header.Kind != RecordHeader {
			t.Fatalf("accepted log with header kind %q", l.Header.Kind)
		}
		// Determinism: the same bytes must decode the same way twice.
		l2, err := ReadLog(dir)
		if err != nil || l2.Records() != l.Records() {
			t.Fatalf("re-read diverged: %d vs %d records, err=%v",
				l2.Records(), l.Records(), err)
		}
		// Repair closure: cutting the uncommitted tail (everything past
		// the last newline) must not change what the reader sees.
		if err := os.WriteFile(path, data[:durable.RepairTail(data)], 0o644); err != nil {
			t.Fatal(err)
		}
		l3, err := ReadLog(dir)
		if err != nil {
			t.Fatalf("repaired log rejected: %v", err)
		}
		if l3.Records() != l.Records() ||
			len(l3.Snapshots) != len(l.Snapshots) ||
			len(l3.Attributions) != len(l.Attributions) ||
			len(l3.Decisions) != len(l.Decisions) {
			t.Fatalf("repair changed the decoded log: %d vs %d records",
				l3.Records(), l.Records())
		}
	})
}
