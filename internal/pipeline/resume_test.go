package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"adaptiverank/internal/corpus"
	"adaptiverank/internal/durable"
	"adaptiverank/internal/extract"
	"adaptiverank/internal/obs"
	"adaptiverank/internal/ranking"
	"adaptiverank/internal/relation"
	"adaptiverank/internal/update"
)

// learnedOpts builds a fresh learned-strategy Options over env, wired to
// the env's precomputed labels unless an oracle override is given.
func learnedOpts(env *testEnv, seed int64) Options {
	feat := ranking.NewFeaturizer()
	r := ranking.NewRSVMIE(ranking.RSVMOptions{Seed: seed})
	return Options{
		Rel: relation.PH, Coll: env.coll, Labels: env.labels, Sample: env.sample,
		Strategy: NewLearned(r, feat), Detector: update.NewModC(r, 0.1, 5, 2),
		Featurizer: feat,
	}
}

func sameResults(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Order) != len(b.Order) {
		t.Fatalf("Order length differs: %d vs %d", len(a.Order), len(b.Order))
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("Order diverges at %d: doc %d vs %d", i, a.Order[i], b.Order[i])
		}
	}
	if len(a.Tuples) != len(b.Tuples) {
		t.Fatalf("tuple sets differ: %d vs %d", len(a.Tuples), len(b.Tuples))
	}
	for i := range a.Tuples {
		if a.Tuples[i] != b.Tuples[i] {
			t.Fatalf("tuple %d differs: %v vs %v", i, a.Tuples[i], b.Tuples[i])
		}
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatalf("curve lengths differ: %d vs %d", len(a.Curve), len(b.Curve))
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("recall curve diverges at %d%%: %g vs %g", i, a.Curve[i], b.Curve[i])
		}
	}
}

// TestRunContextCancellationDrains: cancelling mid-run returns a partial,
// Interrupted result instead of an error, with Order consistent.
func TestRunContextCancellationDrains(t *testing.T) {
	env := newTestEnv(t, 5)
	ctx, cancel := context.WithCancel(context.Background())
	opts := learnedOpts(env, 5)
	stop := len(env.sample) + 40
	calls := 0
	opts.Labels = &cancellingOracle{inner: env.labels, after: stop, calls: &calls, cancel: cancel}
	res, err := RunContext(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("cancelled run not marked Interrupted")
	}
	if len(res.Order) >= env.coll.Len()-res.SampleSize {
		t.Fatal("cancelled run processed the whole collection")
	}
	if len(res.Order) != len(res.OrderLabels) {
		t.Fatal("partial result lost Order/OrderLabels parallelism")
	}
}

// cancellingOracle cancels the run context after `after` labelling calls.
type cancellingOracle struct {
	inner  Oracle
	after  int
	calls  *int
	cancel context.CancelFunc
}

func (c *cancellingOracle) Label(d *corpus.Document) (bool, []relation.Tuple) {
	u, ts, _ := c.LabelContext(context.Background(), d)
	return u, ts
}
func (c *cancellingOracle) TotalUseful() (int, bool) { return c.inner.TotalUseful() }
func (c *cancellingOracle) LabelContext(ctx context.Context, d *corpus.Document) (bool, []relation.Tuple, error) {
	*c.calls++
	if *c.calls == c.after {
		c.cancel()
	}
	if err := ctx.Err(); err != nil {
		return false, nil, err
	}
	u, ts := c.inner.Label(d)
	return u, ts, nil
}

// TestRunJournalResumeReproducesRun is the tentpole acceptance test: a
// run interrupted partway and resumed against its journal produces the
// same Order, tuple set, and recall curve as an uninterrupted run.
func TestRunJournalResumeReproducesRun(t *testing.T) {
	env := newTestEnv(t, 7)

	// Reference: uninterrupted, journal-less run.
	ref, err := RunContext(context.Background(), learnedOpts(env, 7))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run with a journal: cancel after ~60 ranked docs.
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, "resume-test")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	opts := learnedOpts(env, 7)
	opts.Journal = j
	calls := 0
	opts.Labels = &cancellingOracle{inner: env.labels, after: len(env.sample) + 60, calls: &calls, cancel: cancel}
	part, err := RunContext(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Interrupted || len(part.Order) == 0 {
		t.Fatalf("setup: want a non-empty interrupted run, got interrupted=%v order=%d",
			part.Interrupted, len(part.Order))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: fresh strategy/detector state, same seed, journal replay.
	j2, err := OpenJournal(path, "resume-test")
	if err != nil {
		t.Fatal(err)
	}
	if j2.Entries() == 0 {
		t.Fatal("journal empty after interrupted run")
	}
	opts2 := learnedOpts(env, 7)
	opts2.Journal = j2
	res, err := RunContext(context.Background(), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("resumed run reported Interrupted")
	}
	sameResults(t, ref, res)

	// The resumed prefix must match the interrupted run's order exactly.
	for i, id := range part.Order {
		if res.Order[i] != id {
			t.Fatalf("resume order diverges from interrupted run at %d: %d vs %d", i, res.Order[i], id)
		}
	}
}

// TestRunJournalKillAndResumeWorkers2 kills a journaled two-worker run
// at a journal write after its first model update, resumes it on two
// workers, and requires the uninterrupted run's result. The resumed run
// re-derives every feature id, so its journal snapshot check passes only
// if ids do not depend on how the score workers were scheduled.
func TestRunJournalKillAndResumeWorkers2(t *testing.T) {
	env := newTestEnv(t, 7)
	configs := map[string]func() Options{
		"rsvm-modc": func() Options { return learnedOpts(env, 7) },
		"bagg-topk": func() Options {
			feat := ranking.NewFeaturizer()
			return Options{
				Rel: relation.PH, Coll: env.coll, Labels: env.labels, Sample: env.sample,
				Strategy:   NewLearned(ranking.NewBAggIE(ranking.BAggOptions{}), feat),
				Detector:   update.NewTopK(update.TopKOptions{}),
				Featurizer: feat,
			}
		},
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			run := func(j *Journal) (*Result, error) {
				opts := mk()
				opts.Workers, opts.Journal = 2, j
				return RunContext(context.Background(), opts)
			}
			ref, err := run(nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.UpdatePositions) == 0 {
				t.Fatal("setup: the run never updated its model")
			}

			path := filepath.Join(t.TempDir(), "run.journal")
			j, err := OpenJournal(path, name)
			if err != nil {
				t.Fatal(err)
			}
			// The sample's outcomes, then the ranked ones up to the first
			// update, then its snapshot, then 20 more documents.
			skip := len(env.sample) + ref.UpdatePositions[0] + 20
			killed := func() (killed bool) {
				durable.Arm(durable.Point(journalLabel, durable.SiteAppendFull), durable.KillModePanic, skip)
				defer durable.Disarm()
				defer func() {
					if p := recover(); p != nil {
						if _, ok := p.(*durable.Killed); !ok {
							panic(p)
						}
						killed = true
					}
				}()
				if _, err := run(j); err != nil {
					t.Fatal(err)
				}
				return false
			}()
			j.Close()
			if !killed {
				t.Fatal("setup: the run finished before the kill point")
			}

			j2, err := OpenJournal(path, name)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if len(j2.UncheckedSnapshots(math.MaxInt)) == 0 {
				t.Fatal("setup: the killed run journaled no model snapshot")
			}
			res, err := run(j2)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, ref, res)
		})
	}
}

// TestRunJournalResumeDivergenceDetected: resuming a journal against a
// different configuration (different seed => different model evolution)
// must fail loudly at a snapshot check, not silently produce garbage.
func TestRunJournalResumeDivergenceDetected(t *testing.T) {
	env := newTestEnv(t, 9)
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, "div-test")
	if err != nil {
		t.Fatal(err)
	}
	opts := learnedOpts(env, 9)
	opts.Journal = j
	if _, err := RunContext(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, "div-test")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	opts2 := learnedOpts(env, 1234) // different model seed
	opts2.Journal = j2
	_, err = RunContext(context.Background(), opts2)
	if err == nil || !errors.Is(err, ErrResumeDiverged) {
		t.Fatalf("err = %v, want snapshot divergence", err)
	}
}

// TestRunJournalDivergenceClosesRun: a resume that diverges from its
// journal mid-run stops there but still closes the run like every other
// exit. It returns the partial result with the error, ends every span it
// opened, and records exactly one run-finished event.
func TestRunJournalDivergenceClosesRun(t *testing.T) {
	env := newTestEnv(t, 9)
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := OpenJournal(path, "div-close")
	if err != nil {
		t.Fatal(err)
	}
	opts := learnedOpts(env, 9)
	opts.Journal = j
	if _, err := RunContext(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite every snapshot's checksum, so the replay diverges at the
	// first update.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	snaps := 0
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		var rec journalRecord
		if json.Unmarshal(line, &rec) == nil && rec.Kind == "snap" {
			rec.Sum ^= 1
			snaps++
			if line, err = json.Marshal(rec); err != nil {
				t.Fatal(err)
			}
			line = append(line, '\n')
		}
		out = append(out, line...)
	}
	if snaps == 0 {
		t.Fatal("setup: the journal holds no model snapshot")
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, "div-close")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	mem := &obs.MemRecorder{}
	opts2 := learnedOpts(env, 9)
	opts2.Journal, opts2.Recorder = j2, mem
	res, err := RunContext(context.Background(), opts2)
	if !errors.Is(err, ErrResumeDiverged) {
		t.Fatalf("err = %v, want snapshot divergence", err)
	}
	if res == nil || len(res.Order) == 0 || len(res.UpdatePositions) != 1 {
		t.Fatalf("want the partial result up to the first update, got %+v", res)
	}

	open := map[int64]string{}
	finished := 0
	for _, e := range mem.Events() {
		switch e.Kind {
		case obs.KindSpanStart:
			open[e.Span] = e.Name
		case obs.KindSpanEnd:
			if _, ok := open[e.Span]; !ok {
				t.Fatalf("span %d (%s) ended without an open start", e.Span, e.Name)
			}
			delete(open, e.Span)
		case obs.KindRunFinished:
			finished++
		}
	}
	if len(open) > 0 {
		t.Errorf("spans never ended: %v", open)
	}
	if finished != 1 {
		t.Errorf("run-finished events = %d, want 1", finished)
	}
}

// TestRunWithFlakyExtractorCompletes is the ISSUE acceptance scenario at
// the pipeline level: a live resilient oracle over a 10% transient + 1%
// panic flaky extractor completes with zero crashes; non-poisoned docs
// get correct labels and poisoned ones are skipped and counted.
func TestRunWithFlakyExtractorCompletes(t *testing.T) {
	env := newTestEnv(t, 11)
	reg := obs.NewRegistry()
	fl := extract.NewFlaky(extract.Get(relation.PH), extract.FlakyOptions{
		Seed: 11, ErrorRate: 0.10, PanicRate: 0.01, PoisonRate: 0.01, MaxFaultyAttempts: 2,
	})
	r := NewResilient(&ExtractorOracle{Ex: fl}, ResilientOptions{
		MaxAttempts: 4, Sleep: func(time.Duration) {},
	})
	opts := learnedOpts(env, 11)
	opts.Labels = r
	opts.Metrics = reg
	res, err := RunContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted {
		t.Fatal("fault-injected run reported Interrupted")
	}
	// Every non-poisoned document must carry its true label.
	for i, id := range res.Order {
		if res.OrderLabels[i] != env.labels.Useful(id) {
			t.Fatalf("doc %d labelled %v, oracle says %v", id, res.OrderLabels[i], env.labels.Useful(id))
		}
	}
	// Skipped docs are exactly the poisoned ones (no breaker trips at
	// these rates), and the counters surface them.
	if len(res.Skipped) == 0 {
		t.Fatal("schedule poisoned no documents; scenario degenerate")
	}
	for _, id := range res.Skipped {
		if !fl.Poisoned(id) {
			t.Fatalf("doc %d skipped but not poisoned", id)
		}
	}
	if got := reg.CounterValue("pipeline.docs_skipped"); got != int64(len(res.Skipped)) {
		t.Fatalf("docs_skipped counter = %d, want %d", got, len(res.Skipped))
	}
	if reg.CounterValue("resilience.faults") == 0 {
		t.Fatal("resilience.faults counter empty: oracle not instrumented through pipeline")
	}
	if res.SampleSize+len(res.Order)+len(res.Skipped) != env.coll.Len() {
		t.Fatalf("sample %d + ranked %d + skipped %d != collection %d",
			res.SampleSize, len(res.Order), len(res.Skipped), env.coll.Len())
	}
}

// TestRunRequeuesOnOpenBreaker: breaker-open fast-fails push docs back
// to the pending pool; once over the requeue limit they are skipped.
func TestRunRequeuesOnOpenBreaker(t *testing.T) {
	env := newTestEnv(t, 13)
	reg := obs.NewRegistry()
	rec := &obs.MemRecorder{}
	opts := breakerOpts(env)
	opts.Metrics = reg
	opts.Recorder = rec
	res, err := RunContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requeued == 0 {
		t.Fatal("open breaker produced no requeues")
	}
	if got := reg.CounterValue("pipeline.docs_requeued"); got != int64(res.Requeued) {
		t.Fatalf("docs_requeued counter = %d, want %d", got, res.Requeued)
	}
	if len(kindEvents(rec, obs.KindDocRequeued)) != res.Requeued {
		t.Fatal("requeue events do not match Result.Requeued")
	}
	// The outage is transient, so requeued docs are eventually labelled:
	// everything is accounted as sample + ranked + skipped.
	if res.SampleSize+len(res.Order)+len(res.Skipped) != env.coll.Len() {
		t.Fatalf("sample %d + ranked %d + skipped %d != collection %d",
			res.SampleSize, len(res.Order), len(res.Skipped), env.coll.Len())
	}
}

// TestRequeueLimit pins the requeue limit: a document fast-failed with
// ErrBreakerOpen three times is processed on its fourth labelling call,
// and a fourth fast-fail skips it with obs.ReasonRequeueLimit instead.
func TestRequeueLimit(t *testing.T) {
	docs := make([]*corpus.Document, 8)
	for i := range docs {
		docs[i] = &corpus.Document{Text: fmt.Sprintf("document number %d", i)}
	}
	coll := corpus.NewCollection(docs)
	labels := ComputeLabels(extract.Get(relation.PH), coll)
	const target corpus.DocID = 3
	for _, tc := range []struct {
		fastFails int
		skipped   bool
	}{{3, false}, {4, true}} {
		calls := 0
		oracle := oracleFunc{
			label: func(_ context.Context, d *corpus.Document) (bool, []relation.Tuple, error) {
				if d.ID == target {
					calls++
					if calls <= tc.fastFails {
						return false, nil, fmt.Errorf("doc %d: %w", d.ID, ErrBreakerOpen)
					}
				}
				u, ts := labels.Label(d)
				return u, ts, nil
			},
			total: labels.TotalUseful,
		}
		rec := &obs.MemRecorder{}
		res, err := Run(Options{
			Rel: relation.PH, Coll: coll, Labels: oracle, Sample: docs[:1],
			Strategy: &scriptedStrategy{}, Recorder: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != 4 || res.Requeued != tc.fastFails {
			t.Errorf("%d fast-fails: %d labelling calls and %d requeues, want 4 and %d",
				tc.fastFails, calls, res.Requeued, tc.fastFails)
		}
		processed := slices.Contains(res.Order, target)
		if processed == tc.skipped || slices.Contains(res.Skipped, target) != tc.skipped {
			t.Errorf("%d fast-fails: doc %d in Order %v, in Skipped %v; want skipped=%v",
				tc.fastFails, target, res.Order, res.Skipped, tc.skipped)
		}
		var reasons, want []string
		for _, e := range kindEvents(rec, obs.KindDocSkipped) {
			reasons = append(reasons, e.Name)
		}
		if tc.skipped {
			want = []string{obs.ReasonRequeueLimit}
		}
		if !slices.Equal(reasons, want) {
			t.Errorf("%d fast-fails: skip reasons %q, want %q", tc.fastFails, reasons, want)
		}
	}
}

// breakerOpts is learnedOpts at seed 13 behind a resilient oracle that
// fails hard for a stretch of calls after the sample, tripping the
// breaker, then recovers.
func breakerOpts(env *testEnv) Options {
	calls := 0
	inner := env.labels
	failFrom, failTo := len(env.sample)+10, len(env.sample)+30
	flaky := oracleFunc{
		label: func(ctx context.Context, d *corpus.Document) (bool, []relation.Tuple, error) {
			calls++
			if calls >= failFrom && calls < failTo {
				return false, nil, errors.New("backend down")
			}
			u, ts := inner.Label(d)
			return u, ts, nil
		},
		total: inner.TotalUseful,
	}
	opts := learnedOpts(env, 13)
	opts.Labels = NewResilient(flaky, ResilientOptions{
		MaxAttempts: 2, BreakerThreshold: 4, BreakerCooldown: 2,
		Sleep: func(time.Duration) {},
	})
	return opts
}

// oracleFunc adapts closures to ContextOracle.
type oracleFunc struct {
	label func(ctx context.Context, d *corpus.Document) (bool, []relation.Tuple, error)
	total func() (int, bool)
}

func (o oracleFunc) Label(d *corpus.Document) (bool, []relation.Tuple) {
	u, ts, _ := o.label(context.Background(), d)
	return u, ts
}
func (o oracleFunc) TotalUseful() (int, bool) { return o.total() }
func (o oracleFunc) LabelContext(ctx context.Context, d *corpus.Document) (bool, []relation.Tuple, error) {
	return o.label(ctx, d)
}

// TestRunScoreWorkerPanicIsRecovered: a strategy whose Score panics on
// one document must not crash the run; the doc is ranked last and the
// panic is attributed in the obs stream.
func TestRunScoreWorkerPanicIsRecovered(t *testing.T) {
	env := newTestEnv(t, 15)
	reg := obs.NewRegistry()
	rec := &obs.MemRecorder{}
	var bomb corpus.DocID = env.coll.Docs()[len(env.sample)+5].ID
	opts := learnedOpts(env, 15)
	opts.Strategy = &panickyStrategy{inner: opts.Strategy, bomb: bomb}
	opts.Metrics = reg
	opts.Recorder = rec
	opts.Workers = 4
	res, err := RunContext(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Order) == 0 {
		t.Fatal("run produced no order")
	}
	if reg.CounterValue("pipeline.worker_panics") == 0 {
		t.Fatal("score panic not counted")
	}
	evs := kindEvents(rec, obs.KindWorkerPanic)
	if len(evs) == 0 || evs[0].Name != "score" || corpus.DocID(evs[0].Doc) != bomb {
		t.Fatalf("worker-panic events = %+v, want doc %d at site score", evs, bomb)
	}
}

// panickyStrategy panics in Score for one specific document.
type panickyStrategy struct {
	inner Strategy
	bomb  corpus.DocID
}

func (p *panickyStrategy) Name() string          { return p.inner.Name() }
func (p *panickyStrategy) Init(s []LabeledDoc)   { p.inner.Init(s) }
func (p *panickyStrategy) Update(b []LabeledDoc) { p.inner.Update(b) }
func (p *panickyStrategy) Observe(ld LabeledDoc) bool {
	return p.inner.Observe(ld)
}
func (p *panickyStrategy) Score(d *corpus.Document) float64 {
	if d.ID == p.bomb {
		panic("score bomb")
	}
	return p.inner.Score(d)
}

// TestComputeLabelsContextPanicAttribution: an extractor panic inside the
// parallel labelling fan-out is converted into an error naming the doc.
func TestComputeLabelsContextPanicAttribution(t *testing.T) {
	env := newTestEnv(t, 17)
	_, err := ComputeLabelsContext(context.Background(), panicOnDocExtractor{bomb: 3}, env.coll)
	if err == nil {
		t.Fatal("extractor panic not surfaced")
	}
	if want := "doc 3"; !containsStr(err.Error(), want) {
		t.Fatalf("err %q does not attribute %q", err, want)
	}
	// Cancellation propagates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeLabelsContext(ctx, extract.Get(relation.PH), env.coll); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

type panicOnDocExtractor struct{ bomb corpus.DocID }

func (panicOnDocExtractor) Relation() relation.Relation  { return relation.PH }
func (panicOnDocExtractor) SimulatedCost() time.Duration { return time.Millisecond }
func (e panicOnDocExtractor) Extract(d *corpus.Document) []relation.Tuple {
	if d.ID == e.bomb {
		panic("extractor bomb")
	}
	return nil
}
