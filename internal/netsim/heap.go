package netsim

// Per-shard event storage. The heap is the simulator's hottest data
// structure, so two layout decisions matter:
//
//   - 4-ary instead of binary: sift paths are half as deep and the four
//     children of a node share cache lines, which beats the binary heap's
//     pointer-chasing-like jumps on large queues (see
//     BenchmarkNetsimReplicate).
//   - Struct-of-arrays: the ordering key (at, key) lives in two dense
//     slices the sift loops touch exclusively; the payload (callback /
//     link / packet operands) sits in a parallel slice that is only moved,
//     never compared.
//
// Ordering is (at, key): key is the canonical event key (see engine.go),
// which makes heap order — and therefore execution order — independent of
// the shard count.

// eventPayload is the non-key part of an event.
type eventPayload struct {
	kind eventKind
	fn   func(*Shard) // evFunc only
	link *link        // evTxDone, evDeliver, evSend
	pkt  *Packet      // evTxDone, evDeliver, evSend
}

type eventHeap struct {
	at  []Time
	key []uint64
	pay []eventPayload
}

func (h *eventHeap) len() int { return len(h.at) }

// minAt returns the earliest queued time, or maxTime when empty.
func (h *eventHeap) minAt() Time {
	if len(h.at) == 0 {
		return maxTime
	}
	return h.at[0]
}

func (h *eventHeap) push(at Time, key uint64, pay eventPayload) {
	h.at = append(h.at, at)
	h.key = append(h.key, key)
	h.pay = append(h.pay, pay)
	// Sift up with a hole: the new element is held in registers and written
	// once at its final slot.
	i := len(h.at) - 1
	for i > 0 {
		par := (i - 1) / 4
		if h.at[par] < at || (h.at[par] == at && h.key[par] <= key) {
			break
		}
		h.at[i], h.key[i], h.pay[i] = h.at[par], h.key[par], h.pay[par]
		i = par
	}
	h.at[i], h.key[i], h.pay[i] = at, key, pay
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() (Time, uint64, eventPayload) {
	at0, key0, pay0 := h.at[0], h.key[0], h.pay[0]
	last := len(h.at) - 1
	at, key, pay := h.at[last], h.key[last], h.pay[last]
	h.pay[last] = eventPayload{} // clear fn/link/pkt for the GC
	h.at, h.key, h.pay = h.at[:last], h.key[:last], h.pay[:last]
	if last > 0 {
		// Sift the former tail down from the root, again with a hole.
		i := 0
		for {
			kid := 4*i + 1
			if kid >= last {
				break
			}
			end := kid + 4
			if end > last {
				end = last
			}
			m := kid
			for c := kid + 1; c < end; c++ {
				if h.at[c] < h.at[m] || (h.at[c] == h.at[m] && h.key[c] < h.key[m]) {
					m = c
				}
			}
			if at < h.at[m] || (at == h.at[m] && key <= h.key[m]) {
				break
			}
			h.at[i], h.key[i], h.pay[i] = h.at[m], h.key[m], h.pay[m]
			i = m
		}
		h.at[i], h.key[i], h.pay[i] = at, key, pay
	}
	return at0, key0, pay0
}
