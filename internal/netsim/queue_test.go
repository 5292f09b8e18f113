package netsim

import (
	"slices"
	"testing"
)

// Tests of the event queue's ordering contract: the re-armable timer and
// the delivery lane must execute every live event at the same (at, key),
// in the same order, as one heap holding one event per schedule call.

// armer is what a timer script drives: the production timer, or the
// reference semantics below.
type armer interface{ arm(sh *Shard, d Time) }

// eventPerArm is the reference timer semantics: every arm schedules an
// event of its own, and an event superseded by a later arm does nothing.
type eventPerArm struct {
	part int32
	gen  int
	fire func(*Shard)
}

func (r *eventPerArm) arm(sh *Shard, d Time) {
	r.gen++
	gen := r.gen
	sh.at(r.part, sh.Now()+d, func(sh *Shard) {
		if gen == r.gen {
			r.fire(sh)
		}
	})
}

func newEventPerArm(part int32, fire func(*Shard)) armer {
	return &eventPerArm{part: part, fire: fire}
}

func newTimer(part int32, fire func(*Shard)) armer {
	t := &timer{}
	t.init(part, fire)
	return t
}

// firing is one event that did work: its canonical order and a label.
type firing struct {
	at    Time
	key   uint64
	label int
}

// scriptStep is one pre-scheduled action of a timer script.
type scriptStep struct {
	at    Time
	op    int // 0: arm, 1: toggle completion, 2: marker
	timer int
	d     Time
}

// mix is a SplitMix64 finalizer: deterministic script decisions.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// randomScript draws n actions over nTimers timers. Times and delays are
// multiples of 10 so that deadlines, markers and re-arms collide often.
func randomScript(seed uint64, n, nTimers int) []scriptStep {
	steps := make([]scriptStep, n)
	for i := range steps {
		r := mix(seed + uint64(i))
		s := scriptStep{at: Time(r%500) * 10, timer: int(r>>10) % nTimers, d: Time(1+(r>>20)%40) * 10}
		switch (r >> 40) % 8 {
		case 6:
			s.op = 1
		case 7:
			s.op = 2
		}
		steps[i] = s
	}
	return steps
}

// rearmFunc decides whether the n-th fire of timer i re-arms, and after
// what delay.
type rearmFunc func(i int, n uint64) (Time, bool)

// hashRearm re-arms two fires in three, after 10 to 300.
func hashRearm(i int, n uint64) (Time, bool) {
	r := mix(uint64(i)<<32 | n)
	return Time(1+(r>>8)%30) * 10, r%3 != 0
}

// runTimerScript executes a script on a bare engine with timers built by
// mk. A live fire of timer i records itself unless timer i is marked
// complete (the completion check every transport makes) and re-arms as
// rearm says; markers record themselves and schedule a second marker at a
// time that may equal a timer deadline. It returns every recorded event
// and the engine's executed-event count.
func runTimerScript(t *testing.T, mk func(int32, func(*Shard)) armer, steps []scriptStep, nTimers int, rearm rearmFunc) ([]firing, int64) {
	t.Helper()
	e := NewEngine()
	var rec []firing
	record := func(sh *Shard, label int) { rec = append(rec, firing{sh.Now(), sh.nowKey, label}) }
	timers := make([]armer, nTimers)
	done := make([]bool, nTimers)
	fires := make([]uint64, nTimers)
	for i := range timers {
		timers[i] = mk(0, func(sh *Shard) {
			if done[i] {
				return
			}
			record(sh, i)
			fires[i]++
			if d, ok := rearm(i, fires[i]); ok {
				timers[i].arm(sh, d)
			}
		})
	}
	for si, s := range steps {
		e.At(s.at, func(sh *Shard) {
			switch s.op {
			case 0:
				timers[s.timer].arm(sh, s.d)
			case 1:
				done[s.timer] = !done[s.timer]
			case 2:
				record(sh, -1)
				sh.at(0, sh.Now()+s.d, func(sh *Shard) { record(sh, -2-si) })
			}
		})
	}
	e.Run(maxTime - 1)
	if n := e.Pending(); n != 0 {
		t.Fatalf("%d events still queued after a drained run", n)
	}
	return rec, e.Executed()
}

func TestTimerMatchesEventPerArm(t *testing.T) {
	// Hand-built: re-arm later (no push), re-arm earlier (the entry at
	// 100 becomes an orphan), a re-arm from the fire that lands at the
	// orphan's time, same-time markers on both sides of it, and a
	// completion that suppresses the last fire.
	steps := []scriptStep{
		{at: 0, op: 0, d: 100},  // deadline 100
		{at: 10, op: 0, d: 200}, // 210: later, recorded only
		{at: 20, op: 0, d: 50},  // 70: earlier, orphans the entry at 100
		{at: 100, op: 2, d: 0},  // marker at 100 with an early key
		{at: 105, op: 1},        // completion before the next deadline
	}
	// The first fire (at 70) re-arms to 100, the second (at 100) to 110.
	handRearm := func(_ int, n uint64) (Time, bool) {
		if n > 2 {
			return 0, false
		}
		return []Time{30, 10}[n-1], true
	}
	got, gotN := runTimerScript(t, newTimer, steps, 1, handRearm)
	want, wantN := runTimerScript(t, newEventPerArm, steps, 1, handRearm)
	if !slices.Equal(got, want) {
		t.Fatalf("timer executed\n  %v\nevent per arm executed\n  %v", got, want)
	}
	if gotN >= wantN {
		t.Fatalf("timer executed %d events, event per arm %d: stale pops not saved", gotN, wantN)
	}
	var times []Time
	for _, f := range got {
		times = append(times, f.at)
	}
	// At 100 the early marker runs first, then the orphan is skipped, the
	// timer fires, and the marker's follow-up (keyed after the re-arm)
	// runs last; the fire due at 110 falls after the completion.
	if !slices.Equal(times, []Time{70, 100, 100, 100}) {
		t.Fatalf("recorded times %v, want [70 100 100 100]", times)
	}

	for seed := uint64(1); seed <= 20; seed++ {
		steps := randomScript(seed*1000, 400, 5)
		got, gotN := runTimerScript(t, newTimer, steps, 5, hashRearm)
		want, wantN := runTimerScript(t, newEventPerArm, steps, 5, hashRearm)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: record %d: timer %+v, event per arm %+v", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: timer recorded %d events, event per arm %d", seed, len(got), len(want))
		}
		if gotN >= wantN {
			t.Fatalf("seed %d: timer executed %d events, event per arm %d", seed, gotN, wantN)
		}
	}
}

func TestLaneMergesByKey(t *testing.T) {
	e := NewEngine()
	var keys []uint64
	rec := eventPayload{kind: evFunc, fn: func(sh *Shard) { keys = append(keys, sh.nowKey) }}
	e.At(0, func(sh *Shard) {
		// Equal-time deliveries pushed out of key order.
		for _, id := range []int32{3, 1, 4, 0} {
			sh.pushLane(10, deliverKey(id, 1), rec)
		}
		// A heap entry at the same time between them (a delivery that
		// crossed shards) and a local event, which sorts first.
		sh.push(10, deliverKey(2, 1), rec)
		sh.pushLocal(10, 0, rec)
		// A later lane run.
		sh.pushLane(20, deliverKey(1, 2), rec)
		sh.pushLane(20, deliverKey(0, 2), rec)
	})
	e.Run(100)
	want := []uint64{localKey(0, 2),
		deliverKey(0, 1), deliverKey(1, 1), deliverKey(2, 1), deliverKey(3, 1), deliverKey(4, 1),
		deliverKey(0, 2), deliverKey(1, 2)}
	if !slices.Equal(keys, want) {
		t.Fatalf("executed keys %x, want %x", keys, want)
	}
	if hw := e.QueueHighWater(); hw != 8 {
		t.Fatalf("QueueHighWater = %d, want 8 (six lane entries plus two heap entries)", hw)
	}
	if n := e.Pending(); n != 0 {
		t.Fatalf("Pending = %d after a drained run", n)
	}
}

func TestLaneOutOfOrderTimeFallsBackToHeap(t *testing.T) {
	e := NewEngine()
	var times []Time
	rec := eventPayload{kind: evFunc, fn: func(sh *Shard) { times = append(times, sh.Now()) }}
	e.At(0, func(sh *Shard) {
		sh.pushLane(30, deliverKey(0, 1), rec)
		sh.pushLane(20, deliverKey(1, 1), rec) // earlier than the lane tail
		sh.pushLane(40, deliverKey(2, 1), rec)
	})
	e.Run(100)
	if !slices.Equal(times, []Time{20, 30, 40}) {
		t.Fatalf("executed at %v, want [20 30 40]", times)
	}
}

// minQueued returns the smallest (at, key) queued on the shard, by brute
// force over the heap and the lane.
func minQueued(sh *Shard) (Time, uint64) {
	at, key := maxTime, ^uint64(0)
	less := func(a Time, k uint64) bool { return a < at || a == at && k < key }
	for i := range sh.q.heap.at {
		if less(sh.q.heap.at[i], sh.q.heap.key[i]) {
			at, key = sh.q.heap.at[i], sh.q.heap.key[i]
		}
	}
	for _, ev := range sh.q.lane.buf[sh.q.lane.head:] {
		if less(ev.at, ev.key) {
			at, key = ev.at, ev.key
		}
	}
	return at, key
}

// TestQueuePopsGlobalMinimum steps whole simulations and checks that every
// executed event is the (at, key) minimum of everything queued — the
// defining property of one heap — for each transport, including at
// LinkDelay = 0, where deliveries land at the current time.
func TestQueuePopsGlobalMinimum(t *testing.T) {
	for _, delay := range []Time{0, 1 * Microsecond} {
		for _, cfg := range []Config{NDPDefaults(), TCPDefaults(TransportTCP), TCPDefaults(TransportDCTCP), TCPDefaults(TransportMPTCP)} {
			cfg.LinkDelay = delay
			s, sf := sfSim(t, 5, 3, 0.6, cfg, 5)
			n := int32(sf.N())
			for i := int32(0); i < 12; i++ {
				s.AddFlow(FlowSpec{Src: i, Dst: (i*7 + 5) % n, Bytes: 64 << 10, Start: Time(i%3) * Microsecond})
			}
			sh := s.Eng.shards[0]
			steps := 0
			for sh.q.len() > 0 {
				at, key := minQueued(sh)
				sh.step()
				if sh.now != at || sh.nowKey != key {
					t.Fatalf("transport %d delay %d step %d: executed (%d, %x), queue minimum was (%d, %x)",
						cfg.Transport, delay, steps, sh.now, sh.nowKey, at, key)
				}
				steps++
			}
			for i, f := range s.flows {
				if !f.done {
					t.Fatalf("transport %d delay %d: flow %d did not complete", cfg.Transport, delay, i)
				}
			}
		}
	}
}

func TestPendingZeroAfterDrainedRun(t *testing.T) {
	for _, tr := range []Transport{TransportTCP, TransportMPTCP} {
		s, sf := sfSim(t, 5, 3, 0.6, TCPDefaults(tr), 9)
		for i := int32(0); i < 8; i++ {
			s.AddFlow(FlowSpec{Src: i, Dst: int32(sf.N()) - 1 - i, Bytes: 256 << 10})
		}
		res := s.Run(10 * Second)
		if CompletedFraction(res) != 1 {
			t.Fatalf("transport %d: flows did not complete", tr)
		}
		if n := s.Eng.Pending(); n != 0 {
			t.Fatalf("transport %d: Pending = %d after a drained run", tr, n)
		}
		if s.Eng.Now() != 10*Second {
			t.Fatalf("transport %d: drained run ended at %d, want the horizon", tr, s.Eng.Now())
		}
	}
}
