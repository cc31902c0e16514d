package sim

// eventKind selects what an event does when it fires. The engine's
// three process-lifecycle transitions (start, Sleep wake, value
// delivery) are encoded as kinds dispatched over the event's intrusive
// *Proc pointer instead of per-event closures: Schedule-ing a wake is
// then allocation-free, which matters when a cluster run pushes
// millions of block/wake pairs through the queue.
type eventKind uint8

const (
	// evCall runs the event's fn callback (user events, daemons).
	evCall eventKind = iota
	// evStart fires a created process's first activation.
	evStart
	// evWake resumes a process parked by Sleep. No value crosses the
	// wake, so the fast path never touches the any-boxed wakeVal.
	evWake
	// evDeliver resumes a process a waker transitioned to procWaking.
	// The handed-over value is stored on the process by deliverAt, not
	// on the event, keeping the event payload-free and small.
	evDeliver
	// evTimer is an entry of a Timer: fn is the timer's pop, which
	// reads the entry's sequence number from Engine.expiring to tell
	// its live entry from a superseded one.
	evTimer
)

// event is a scheduled occurrence at time t. Events with equal times
// fire in (pri, seq) order, which keeps runs deterministic. Locally
// scheduled events carry pri 0 and the engine's own sequence counter,
// so a purely local engine behaves exactly as before: scheduling order
// is execution order. Events injected from another shard (PostArrival)
// carry a priority key derived from the sending port and the sender's
// own per-port sequence number — a total order that does not depend on
// which shard ran first or how inter-shard inboxes were drained, which
// is what makes sharded runs byte-identical to sequential ones. For
// process events the target is stored intrusively in p; fn is set only
// for evCall. The struct is deliberately lean (48 bytes): the heap
// moves events by value, so every field is paid on each sift.
type event struct {
	t    Time
	pri  uint64
	seq  uint64
	fn   func()
	p    *Proc
	kind eventKind
}

// arrivalClass is the priority-class bit for cross-shard arrivals: at
// equal times every local event (pri 0) fires before every arrival, and
// arrivals order among themselves by source port then source sequence.
const arrivalClass = uint64(1) << 63

// eventHeap is a 4-ary min-heap of events ordered by (time, pri, seq).
// It is implemented directly rather than via container/heap to avoid
// interface boxing on the hot path, and with 4 children per node to
// halve the tree depth: siftDown dominates pop, and the wider fanout
// trades a few extra comparisons per level for significantly fewer
// cache-missing levels on large queues.
type eventHeap struct {
	items []event
	peak  int // high-water of len(items)
}

func (h *eventHeap) Len() int { return len(h.items) }

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.t != b.t {
		return a.t < b.t
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	h.items = append(h.items, ev) //lint:allow hotalloc (amortized growth; steady-state heap capacity is reused, see the zero-alloc benchmarks)
	i := len(h.items) - 1
	if i >= h.peak {
		h.peak = i + 1
	}
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	top := h.items[0]
	n := len(h.items) - 1
	h.items[0] = h.items[n]
	h.items[n] = event{} // release fn/p for GC
	h.items = h.items[:n]
	h.siftDown(0)
	return top
}

func (h *eventHeap) peek() *event { return &h.items[0] }

// bypass accounts for an entry that would be pushed and popped at once
// (a Sleep wake taken on the fast path): only the high-water mark sees
// it.
func (h *eventHeap) bypass() { h.peak = max(h.peak, len(h.items)+1) }

func (h *eventHeap) siftDown(i int) {
	n := len(h.items)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		smallest := i
		last := first + 4
		if last > n {
			last = n
		}
		for c := first; c < last; c++ {
			if h.less(c, smallest) {
				smallest = c
			}
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}
