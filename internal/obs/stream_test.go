package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTeeAssignsOneNumbering(t *testing.T) {
	mem1 := &MemRecorder{}
	mem2 := &MemRecorder{}
	stream := NewStreamRecorder()
	tee := Tee(mem1, Nop(), mem2, stream, nil)
	if !tee.Enabled() {
		t.Fatal("tee with enabled sinks must be enabled")
	}
	for i := 0; i < 5; i++ {
		tee.Record(Event{Kind: KindDocExtracted, Doc: int64(i)})
	}
	e1, e2, e3 := mem1.Events(), mem2.Events(), stream.Events()
	if len(e1) != 5 || len(e2) != 5 || len(e3) != 5 {
		t.Fatalf("sink lengths = %d/%d/%d, want 5 each", len(e1), len(e2), len(e3))
	}
	for i := range e1 {
		if e1[i].Seq != int64(i+1) || e2[i].Seq != e1[i].Seq || e3[i].Seq != e1[i].Seq {
			t.Fatalf("event %d: seq diverged across sinks: %d/%d/%d",
				i, e1[i].Seq, e2[i].Seq, e3[i].Seq)
		}
		if e1[i].T == 0 || e1[i].T != e2[i].T || e1[i].T != e3[i].T {
			t.Fatalf("event %d: timestamps diverged across sinks", i)
		}
	}
}

func TestTeeDegenerateCases(t *testing.T) {
	if Tee().Enabled() {
		t.Error("empty tee must be the no-op recorder")
	}
	if Tee(Nop(), nil).Enabled() {
		t.Error("tee of disabled sinks must be the no-op recorder")
	}
	mem := &MemRecorder{}
	if got := Tee(mem, Nop()); got != mem {
		t.Error("tee with one enabled sink must return it directly")
	}
}

func TestStreamRingDropOldest(t *testing.T) {
	s := NewStreamRecorder()
	for i := 1; i <= streamCapacity+6; i++ {
		s.Record(Event{Kind: KindDocExtracted, Doc: int64(i)})
	}
	got := s.Events()
	if len(got) != streamCapacity {
		t.Fatalf("ring length = %d, want %d", len(got), streamCapacity)
	}
	for i, e := range got {
		if want := int64(7 + i); e.Doc != want || e.Seq != want {
			t.Errorf("ring[%d] = doc %d seq %d, want %d (drop-oldest)", i, e.Doc, e.Seq, want)
		}
	}
}

// TestStreamSubscribeReplaysInSeqOrder drives a stream from several
// concurrent writers while a subscriber joins mid-stream; the
// subscriber must see the ring replay followed by live events, all in
// strictly increasing Seq order. The events fill the subscriber's
// backlog exactly, since it drains only after the writers finish. Run
// with -race.
func TestStreamSubscribeReplaysInSeqOrder(t *testing.T) {
	const (
		writers  = 8
		perWrite = subscribeBacklog / writers
	)
	s := NewStreamRecorder()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWrite; i++ {
				s.Record(Event{Kind: KindDocExtracted, Doc: int64(w*perWrite + i)})
			}
		}(w)
	}
	close(start)

	// Subscribe while writers are racing: the replay prefix and the live
	// suffix must form one strictly increasing Seq sequence.
	ch, cancel := s.Subscribe()
	defer cancel()
	wg.Wait()

	var prev int64
	seen := 0
	total := writers * perWrite
	deadline := time.After(10 * time.Second)
	for seen < total {
		select {
		case e := <-ch:
			if e.Seq <= prev {
				t.Fatalf("event %d: seq %d not increasing (prev %d)", seen, e.Seq, prev)
			}
			prev = e.Seq
			seen++
		case <-deadline:
			t.Fatalf("timed out after %d/%d events", seen, total)
		}
	}
	if prev != int64(total) {
		t.Errorf("last seq = %d, want %d", prev, total)
	}
}

// TestStreamSlowSubscriberNeverBlocks pins the backpressure contract: a
// subscriber that never drains loses oldest events but Record returns
// promptly, and the events it does eventually read are still in order.
func TestStreamSlowSubscriberNeverBlocks(t *testing.T) {
	const total = 4 * subscribeBacklog
	s := NewStreamRecorder()
	ch, cancel := s.Subscribe()
	defer cancel()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= total; i++ {
			s.Record(Event{Kind: KindDocExtracted, Doc: int64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Record blocked on a slow subscriber")
	}

	var prev int64
	n := 0
	for {
		select {
		case e := <-ch:
			if e.Seq <= prev {
				t.Fatalf("seq %d not increasing (prev %d)", e.Seq, prev)
			}
			prev = e.Seq
			n++
		default:
			if n == 0 {
				t.Fatal("slow subscriber received nothing")
			}
			if prev != total {
				t.Errorf("drop-oldest must keep the newest event; last seq = %d", prev)
			}
			return
		}
	}
}

func TestStreamSubscribeCancelIdempotent(t *testing.T) {
	s := NewStreamRecorder()
	s.Record(Event{Kind: KindRunStarted})
	ch, cancel := s.Subscribe()
	if s.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1", s.Subscribers())
	}
	cancel()
	cancel() // must not panic (double close)
	if s.Subscribers() != 0 {
		t.Fatalf("subscribers = %d, want 0", s.Subscribers())
	}
	// Channel drains the replay then closes.
	if e, ok := <-ch; !ok || e.Kind != KindRunStarted {
		t.Errorf("replay before close lost: %v %v", e, ok)
	}
	if _, ok := <-ch; ok {
		t.Error("channel must be closed after cancel")
	}
	s.Record(Event{Kind: KindRunFinished}) // must not panic on closed channel
}

func TestRecordersPreserveUpstreamStamps(t *testing.T) {
	mem := &MemRecorder{}
	mem.Record(Event{Kind: KindPhase, Seq: 41, T: 99})
	mem.Record(Event{Kind: KindPhase}) // unstamped: continues from 41
	ev := mem.Events()
	if ev[0].Seq != 41 || ev[0].T != 99 {
		t.Errorf("stamped event rewritten: %+v", ev[0])
	}
	if ev[1].Seq != 42 || ev[1].T == 0 {
		t.Errorf("unstamped event not stamped after preserved seq: %+v", ev[1])
	}
}
