package prof

import (
	"os"
	"path/filepath"
	"testing"

	"adaptiverank/internal/durable"
)

// FuzzReadManifest asserts the manifest reader never panics on arbitrary
// file contents — torn tails, binary garbage, corrupted JSON — and that
// its torn-tail tolerance composes with the append-side repair: whatever
// ReadManifest accepts, it must decode identically after the
// durable.RepairTail truncation a restarted appender would perform,
// because the swallowed tail contributed nothing. Seed inputs live in
// testdata/fuzz/FuzzReadManifest.
func FuzzReadManifest(f *testing.F) {
	header := `{"kind":"header","run_id":"fuzz","fp":"abc","go":"go1.22"}` + "\n"
	art := `{"kind":"artifact","artifact":"cpu","file":"cpu-0001.pb.gz","phase":"extract","span":7,"t0":1,"t1":2}` + "\n"
	f.Add([]byte(header))
	f.Add([]byte(header + art))
	f.Add([]byte(header + art + `{"kind":"artifact","file":"heap-`)) // torn tail
	f.Add([]byte(header + "not json\n" + art))                       // corrupt middle
	f.Add([]byte(art))                                               // no header
	f.Add([]byte(header + art + "\r\n"))
	f.Add([]byte(header + `{"kind":"header","run_id":"second"}` + "\n")) // duplicate header
	f.Add([]byte("not json"))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe, 0x00, '\n', '{', '}'})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, ManifestName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			return
		}
		if m.Header.Kind != RecordHeader {
			t.Fatalf("accepted manifest with header kind %q", m.Header.Kind)
		}
		// Determinism: the same bytes must decode the same way twice.
		m2, err := ReadManifest(dir)
		if err != nil || len(m2.Artifacts) != len(m.Artifacts) {
			t.Fatalf("re-read diverged: %d vs %d artifacts, err=%v",
				len(m2.Artifacts), len(m.Artifacts), err)
		}
		// Repair closure: cutting the uncommitted tail (everything past
		// the last newline) must not change what the reader sees.
		if err := os.WriteFile(path, data[:durable.RepairTail(data)], 0o644); err != nil {
			t.Fatal(err)
		}
		m3, err := ReadManifest(dir)
		if err != nil {
			t.Fatalf("repaired manifest rejected: %v", err)
		}
		if len(m3.Artifacts) != len(m.Artifacts) || m3.Header != m.Header {
			t.Fatalf("repair changed the decoded manifest: %d vs %d artifacts",
				len(m3.Artifacts), len(m.Artifacts))
		}
	})
}
