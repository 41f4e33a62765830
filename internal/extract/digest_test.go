package extract

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/textgen"
)

// extractDigest is the SHA-256 of every (relation, doc id, arg1, arg2)
// tuple the seven built-in extractors yield over digestCorpus, in
// relation.All order, collection order, and each document's output
// order. It was computed before the extractors' per-document path was
// rewritten; any rewrite must reproduce it bit for bit.
const (
	extractDigest = "6acb5a0fa212d38c77731cb179ef7bd4bf14c01df68799f9b19d4017482d4686"
	extractTuples = 2187
)

// digestCorpus is the fixed corpus the digest is computed over.
func digestCorpus() *corpus.Collection {
	coll, _ := textgen.Generate(textgen.DefaultConfig(2024, 2000))
	return coll
}

func TestExtractDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus-level extraction is slow")
	}
	coll := digestCorpus()
	h := sha256.New()
	n := 0
	for _, r := range relation.All() {
		e := Get(r)
		perRel := 0
		for _, d := range coll.Docs() {
			for _, tu := range e.Extract(d) {
				fmt.Fprintf(h, "%s\t%d\t%q\t%q\n", tu.Rel.Code(), d.ID, tu.Arg1, tu.Arg2)
				perRel++
			}
		}
		t.Logf("%s: %d tuples", r.Code(), perRel)
		if perRel == 0 {
			t.Errorf("%s: no tuples over the digest corpus; it pins nothing", r.Code())
		}
		n += perRel
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != extractDigest || n != extractTuples {
		t.Errorf("tuple digest = %s over %d tuples, want %s over %d", got, n, extractDigest, extractTuples)
	}
}

// TestExtractConcurrentMatchesSerial shares each built-in extractor
// between eight goroutines over overlapping, shuffled slices of a corpus
// and checks every result against a serial pass. Run it under -race.
func TestExtractConcurrentMatchesSerial(t *testing.T) {
	coll, _ := textgen.Generate(textgen.DefaultConfig(31, 400))
	docs := coll.Docs()
	for _, r := range relation.All() {
		e := Get(r)
		want := make([][]relation.Tuple, len(docs))
		for i, d := range docs {
			want[i] = e.Extract(d)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				lo := g * len(docs) / 16
				order := rng.Perm(len(docs) - lo)
				for _, k := range order {
					i := lo + k
					if got := e.Extract(docs[i]); !reflect.DeepEqual(got, want[i]) {
						errs <- fmt.Sprintf("%s doc %d: concurrent %v, serial %v", r.Code(), docs[i].ID, got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Error(msg)
		}
	}
}
