package sim

// Timer is a re-armable one-shot callback for deadlines that are set
// far more often than they fire, such as a wait's fallback that the
// wait usually outruns. Scheduling one event per deadline would leave
// every superseded deadline in the queue until its time came; a Timer
// keeps at most one queue entry while its deadlines only move later.
//
// The rule that keeps it exact: Reset reserves the sequence number a
// Schedule at that moment would take, and the callback runs under the
// key (deadline, that number). When the timer's entry pops before the
// live deadline, the entry re-queues itself under the reserved key, so
// the callback fires at exactly the place in the event order where an
// event scheduled by that last Reset would have run. An armed timer is
// an ordinary pending event: it does not count toward Blocked.
type Timer struct {
	eng    *Engine
	fn     func()
	expire func() // t.pop, bound once: the fn of every entry the timer queues

	at  Time   // live deadline
	seq uint64 // sequence number the last Reset reserved

	// queued reports that the timer has an entry it relies on in the
	// queue; qat and qseq are that entry's key.
	queued bool
	qat    Time
	qseq   uint64
}

// NewTimer returns an unarmed timer that runs fn on the engine when a
// deadline set by Reset arrives.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{eng: e, fn: fn}
	t.expire = t.pop
	return t
}

// Reset arms t to run its callback at absolute time at, replacing any
// deadline that has not fired yet; the callback runs once per deadline
// that is not replaced. Resetting into the past panics, like Schedule.
//
// A deadline at or after the queued entry's keeps that entry, which
// re-queues itself when it pops. A deadline earlier than the queued
// entry queues a fresh entry at once; the superseded entry stays in the
// queue, and is discarded when it pops, so Pending counts it until
// then.
//
//lint:hotpath re-arms once per wait; it must stay allocation-free
func (t *Timer) Reset(at Time) {
	e := t.eng
	if at < e.now {
		e.schedulePastPanic(at)
	}
	e.seq++
	t.at, t.seq = at, e.seq
	if !t.queued || at < t.qat {
		t.push()
	}
}

// push queues an entry under the live deadline's key.
func (t *Timer) push() {
	t.queued, t.qat, t.qseq = true, t.at, t.seq
	t.eng.queue.push(event{t: t.at, seq: t.seq, kind: evTimer, fn: t.expire})
}

// pop handles one of the timer's entries leaving the queue; the engine
// has stored the entry's sequence number in expiring.
func (t *Timer) pop() {
	if !t.queued || t.eng.expiring != t.qseq {
		return // an entry a Reset to an earlier deadline superseded
	}
	if t.seq != t.qseq {
		t.push() // early: the deadline moved later since this entry was queued
		return
	}
	t.queued = false
	t.fn()
}
