package obs

import (
	"sync"
)

// teeRecorder fans every event out to several sinks with one shared
// sequence numbering (see Tee).
type teeRecorder struct {
	mu    sync.Mutex
	seq   int64
	sinks []Recorder
}

// Tee returns a Recorder that forwards every event to all enabled
// sinks. It assigns Seq and T once, centrally, before forwarding, so
// every sink sees the identical event — a JSONL trace file and a live
// event stream fed by the same tee agree line for line. Disabled sinks
// are dropped at construction; with no enabled sink, Tee degenerates to
// the no-op recorder.
func Tee(sinks ...Recorder) Recorder {
	enabled := make([]Recorder, 0, len(sinks))
	for _, s := range sinks {
		if s != nil && s.Enabled() {
			enabled = append(enabled, s)
		}
	}
	switch len(enabled) {
	case 0:
		return Nop()
	case 1:
		return enabled[0]
	}
	return &teeRecorder{sinks: enabled}
}

// Enabled implements Recorder.
func (t *teeRecorder) Enabled() bool { return true }

// Record implements Recorder: it stamps the event and forwards it to
// every sink while holding the tee mutex, so sinks receive events in
// one globally consistent Seq order.
func (t *teeRecorder) Record(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	e.Seq = t.seq
	e.T = nowUnixNano()
	for _, s := range t.sinks {
		//lint:allow locksafe forwarding under the tee mutex is the point: it is what gives all sinks one Seq order
		s.Record(e)
	}
}

// streamSub is one live subscriber of a StreamRecorder.
type streamSub struct {
	ch      chan Event
	dropped int64
}

// StreamRecorder retains the most recent events in a bounded ring
// buffer and fans them out to live subscribers (e.g. SSE connections).
// Both sides apply drop-oldest backpressure: the ring overwrites its
// oldest event when full, and a subscriber whose channel is full loses
// its oldest undelivered event rather than blocking Record — a slow
// dashboard can never stall the extraction hot path.
type StreamRecorder struct {
	mu      sync.Mutex
	seq     int64
	ring    []Event // circular, len == streamCapacity once full
	head    int     // index of the oldest retained event
	n       int     // retained event count
	subs    map[int]*streamSub
	nextSub int
}

// The stream's bounds: the ring retains the newest streamCapacity
// events, and a subscriber's channel holds subscribeBacklog undelivered
// events, or its whole replay when that is longer; past that a slow
// subscriber loses its oldest events rather than stall Record.
const (
	streamCapacity   = 4096
	subscribeBacklog = 1024
)

// NewStreamRecorder returns a stream retaining the newest 4096 events.
func NewStreamRecorder() *StreamRecorder {
	return &StreamRecorder{
		ring: make([]Event, 0, streamCapacity),
		subs: make(map[int]*streamSub),
	}
}

// Enabled implements Recorder.
func (s *StreamRecorder) Enabled() bool { return true }

// Record implements Recorder: the event is stamped (unless an upstream
// Tee already stamped it), appended to the ring, and offered to every
// subscriber without ever blocking.
func (s *StreamRecorder) Record(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Seq == 0 {
		s.seq++
		e.Seq = s.seq
	} else if e.Seq > s.seq {
		s.seq = e.Seq
	}
	if e.T == 0 {
		e.T = nowUnixNano()
	}
	if len(s.ring) < streamCapacity {
		s.ring = append(s.ring, e)
		s.n++
	} else {
		// Full: overwrite the oldest slot.
		s.ring[s.head] = e
		s.head = (s.head + 1) % streamCapacity
	}
	for _, sub := range s.subs {
		select {
		case sub.ch <- e:
		default:
			// Subscriber full: drop its oldest undelivered event to make
			// room. All sends happen under s.mu, so after draining one
			// slot the second send can only fail if the consumer raced a
			// receive in between — in which case there is room anyway.
			select {
			case <-sub.ch:
				sub.dropped++
			default:
			}
			select {
			case sub.ch <- e:
			default:
				sub.dropped++
			}
		}
	}
}

// Events returns the retained ring contents, oldest first (Seq order).
func (s *StreamRecorder) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *StreamRecorder) snapshotLocked() []Event {
	out := make([]Event, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(s.head+i)%len(s.ring)])
	}
	return out
}

// Subscribe registers a live subscriber: the returned channel first
// replays every ring-buffered event in Seq order, then delivers live
// events as they are recorded. The undelivered backlog is bounded
// (drop-oldest once exceeded; see subscribeBacklog), and the replay
// always fits. cancel unregisters the subscriber and closes the channel.
func (s *StreamRecorder) Subscribe() (events <-chan Event, cancel func()) {
	s.mu.Lock()
	replay := s.snapshotLocked()
	sub := &streamSub{ch: make(chan Event, max(subscribeBacklog, len(replay)))}
	for _, e := range replay {
		//lint:allow locksafe provably non-blocking: the channel was just made with room for the replay
		sub.ch <- e
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = sub
	s.mu.Unlock()

	var once sync.Once
	return sub.ch, func() {
		once.Do(func() {
			s.mu.Lock()
			delete(s.subs, id)
			s.mu.Unlock()
			close(sub.ch)
		})
	}
}

// Subscribers reports the number of live subscribers.
func (s *StreamRecorder) Subscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}
