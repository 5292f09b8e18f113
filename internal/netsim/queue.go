package netsim

// queue is a shard's event queue: the 4-ary heap plus a FIFO lane for
// link deliveries that stay on the shard. Every link has the same delay,
// so a shard produces its local deliveries at now+LinkDelay in
// non-decreasing time order; appending them to a lane costs O(1) where
// the heap pays a sift per push and per pop, and deliveries are about
// half of all events. Pops take the smaller (at, key) of the lane head and
// the heap top, so the queue yields exactly the order one heap of all its
// events would: execution order is unchanged.
type queue struct {
	heap eventHeap
	// lane holds deliveries sorted by (at, key): times arrive in
	// non-decreasing order, and pushLane keeps each run of equal times
	// sorted by key.
	lane fifo[event]
}

// event is one queued event: its canonical order and its payload.
type event struct {
	at  Time
	key uint64
	pay eventPayload
}

func (q *queue) len() int { return q.heap.len() + q.lane.len() }

// minAt returns the earliest queued time, or maxTime when empty.
func (q *queue) minAt() Time {
	t := q.heap.minAt()
	if q.lane.len() > 0 && q.lane.front().at < t {
		t = q.lane.front().at
	}
	return t
}

// pushLane queues an event on the lane when its time is no earlier than
// the lane's tail, and on the heap otherwise (the order is exact either
// way; the lane is only the cheap path for in-order times).
func (q *queue) pushLane(at Time, key uint64, pay eventPayload) {
	if n := q.lane.len(); n > 0 && q.lane.buf[len(q.lane.buf)-1].at > at {
		q.heap.push(at, key, pay)
		return
	}
	q.lane.push(event{at: at, key: key, pay: pay})
	// Sort the new entry into its run of equal times. Such runs are short:
	// they come from events that executed at the same instant.
	b := q.lane.buf
	for i := len(b) - 1; i > q.lane.head && b[i-1].at == at && b[i-1].key > key; i-- {
		b[i], b[i-1] = b[i-1], b[i]
	}
}

// pop removes and returns the earliest event by (at, key).
func (q *queue) pop() (Time, uint64, eventPayload) {
	if q.lane.len() > 0 {
		e := q.lane.front()
		if q.heap.len() == 0 || e.at < q.heap.at[0] || e.at == q.heap.at[0] && e.key < q.heap.key[0] {
			e := q.lane.pop()
			return e.at, e.key, e.pay
		}
	}
	return q.heap.pop()
}

// fifo is a first-in first-out queue that reuses its backing array: pops
// advance a head index, the array rewinds when it drains, and a full array
// whose front half is popped compacts instead of growing. Re-slicing on
// pop (q = q[1:]) would instead walk the array forward and reallocate it
// over and over.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

// front returns the oldest element; the queue must be non-empty.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head >= len(q.buf)/2 && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// pop removes and returns the oldest element; the queue must be non-empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop references for the GC
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
