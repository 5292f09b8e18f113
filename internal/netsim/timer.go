package netsim

// timer is a re-armable one-shot timer on one partition — the simulator's
// one timer mechanism (TCP/DCTCP and MPTCP retransmission timeouts, the
// NDP keepalive). Arming it behaves exactly like scheduling a fresh event
// and ignoring every earlier one: each arm reserves the partition's next
// canonical key, and the timer fires at the latest arm's (at, key). What
// it saves is the queue traffic: a flow re-arms its RTO on every send and
// ACK, and one queued event per arm would leave the heap full of stale
// entries that pop as no-ops.
//
// At most one entry per timer is live in the queue:
//
//   - An arm later than the queued entry only records the new deadline.
//     When the queued entry pops, it re-pushes itself at that deadline.
//   - An arm earlier than the queued entry pushes a new entry; the later
//     one becomes an orphan and is ignored when it pops.
//
// Live timers therefore fire at the same (at, key) as one event per arm
// would, and every other event keeps its key, so execution order is
// unchanged; only the no-op pops disappear.
type timer struct {
	part  int32
	fire  func(*Shard)
	onPop func(*Shard) // t.pop, bound once so queuing allocates nothing

	at  Time   // deadline of the latest arm
	key uint64 // its canonical key

	queued bool // an entry at (qAt, qKey) is live in the queue
	qAt    Time
	qKey   uint64
}

// init binds the timer to its partition and callback. It runs once per
// flow (or MPTCP subflow), before the first arm.
func (t *timer) init(part int32, fire func(*Shard)) {
	t.part, t.fire = part, fire
	t.onPop = t.pop
}

// arm sets the deadline to now+d, superseding any earlier arm.
func (t *timer) arm(sh *Shard, d Time) {
	at := sh.now + d
	key := sh.nextKey(t.part)
	t.at, t.key = at, key
	// Keys only grow, so a deadline at the queued entry's time is later.
	if t.queued && at >= t.qAt {
		return // the queued entry re-pushes itself when it pops
	}
	t.queue(sh, at, key)
}

func (t *timer) queue(sh *Shard, at Time, key uint64) {
	t.queued, t.qAt, t.qKey = true, at, key
	sh.push(at, key, eventPayload{kind: evFunc, fn: t.onPop})
}

// pop runs when one of the timer's queue entries executes.
func (t *timer) pop(sh *Shard) {
	if !t.queued || sh.nowKey != t.qKey {
		return // orphan, superseded by an arm with an earlier deadline
	}
	t.queued = false
	if t.key != t.qKey {
		t.queue(sh, t.at, t.key) // deadline moved later since queuing
		return
	}
	t.fire(sh)
}
