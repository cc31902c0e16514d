package sim

import (
	"errors"
	"fmt"
)

// ErrDeadlock is returned by Group.Run when every queue drains while
// simulated processes (or callback waiters) are still blocked on
// conditions that nothing will ever signal.
var ErrDeadlock = errors.New("sim: deadlock: no pending events but processes remain blocked")

// Engine owns one shard's virtual clock and event queue, and schedules
// its simulated processes. Engines are built and driven only by a
// Group: obtain one with Group.Engine and advance it with Group.Run. An
// engine is not safe for concurrent use from multiple goroutines: all
// interaction must happen either between Group.Run calls, from inside
// process bodies, or from event callbacks on its own shard.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventHeap
	procs   map[*Proc]struct{} // all live (not yet terminated) processes
	blocked int                // processes and Cond callback waiters currently parked
	running bool
	closed  bool
	shard   int32 // index in the owning Group
	failure error // first process panic, reported by runUntil
	horizon Time  // bound of the runUntil in progress; 0 outside one

	// expiring is the sequence number of the timer entry being
	// dispatched; see Timer.
	expiring uint64
	// events counts queue entries dispatched, and switches the
	// dispatches that handed control to a process goroutine, for
	// Counters.
	events   int
	switches int

	// park is signalled by a process goroutine whenever it hands control
	// back to the engine (by blocking, terminating, or dying).
	park chan struct{}
}

// newEngine returns an engine with the clock at the simulation epoch.
func newEngine() *Engine {
	return &Engine{
		procs: make(map[*Proc]struct{}),
		park:  make(chan struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run at absolute time t inside the engine.
// Scheduling in the past (t < Now) panics: it would silently reorder
// causality and make runs non-reproducible.
//
//lint:hotpath enqueue runs once per event; it must stay allocation-free
func (e *Engine) Schedule(t Time, fn func()) {
	e.scheduleEvent(event{t: t, kind: evCall, fn: fn})
}

// scheduleEvent is the common enqueue path: it stamps the determinism
// sequence number and pushes. Process wakes go through here with a kind
// and an intrusive *Proc instead of a closure, so the hot block/wake
// path allocates nothing. The past-time check calls out to a separate
// panic helper to keep this function inlinable.
func (e *Engine) scheduleEvent(ev event) {
	if ev.t < e.now {
		e.schedulePastPanic(ev.t)
	}
	e.seq++
	ev.seq = e.seq
	e.queue.push(ev)
}

func (e *Engine) schedulePastPanic(t Time) {
	panic(fmt.Sprintf("sim: Schedule at %v before now %v (shard %d)", t, e.now, e.shard)) //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
}

// arrivalPastPanic carries the full lookahead-contract context: which
// shard received the arrival, where it came from, and the offending
// timestamp. Kept out of PostArrival so the hot delivery path stays
// inlinable.
func (e *Engine) arrivalPastPanic(t Time, srcPort int, srcSeq uint64) {
	panic(fmt.Sprintf("sim: cross-shard arrival at %v before now %v (shard %d) (src shard %d, seq %d): the lookahead contract was violated", //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
		t, e.now, e.shard, srcPort, srcSeq))
}

// PostArrival enqueues a cross-shard arrival event: fn runs at absolute
// time t, after every locally scheduled event with the same timestamp,
// ordered against other arrivals by (srcPort, srcSeq). The key is
// supplied by the sender, not stamped here, so the heap's order is
// independent of the order in which a Group drains its inboxes — the
// property the seq-vs-sharded equality gates rely on. Arrivals in the
// past panic like Schedule: the lookahead contract (arrivals land at
// least one link latency past the window horizon) has been violated.
//
//lint:hotpath runs once per cross-rank message on the delivery path
func (e *Engine) PostArrival(t Time, srcPort int, srcSeq uint64, fn func()) {
	if t < e.now {
		e.arrivalPastPanic(t, srcPort, srcSeq)
	}
	e.queue.push(event{t: t, pri: arrivalClass | uint64(srcPort), seq: srcSeq, kind: evCall, fn: fn})
}

// After arranges for fn to run d from now. Negative d is treated as zero.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now.Add(d), fn)
}

// runUntil executes every event strictly before horizon h and returns.
// It is the shard-side half of a Group window: the coordinator picks h
// so that no other shard can inject an arrival earlier than h, and each
// shard drains its queue up to (not including) h with exclusive access
// to its own state. It performs no deadlock check — only the Group can
// tell whether a blocked process might still be woken by a message
// from another shard — and it leaves the clock at the last executed
// event; the Group moves clocks further only before coordinator
// globals, when parking at a limit, and when the run ends.
//
//lint:hotpath the sharded dispatch loop runs once per event
func (e *Engine) runUntil(h Time) error {
	if e.closed {
		return errors.New("sim: engine is closed")
	}
	if e.running {
		return errors.New("sim: runUntil called reentrantly")
	}
	e.running, e.horizon = true, h
	defer func() { e.running, e.horizon = false, 0 }() //lint:allow hotalloc (one closure per window, not per event)

	for e.queue.Len() > 0 && e.queue.peek().t < h {
		ev := e.queue.pop()
		if ev.t > e.now {
			e.now = ev.t
		}
		e.events++
		if ev.kind == evCall { // fast path: no dispatch call for plain events
			ev.fn()
		} else {
			e.dispatch(&ev)
		}
		if e.failure != nil {
			return e.failure
		}
	}
	return nil
}

// selfWake is Sleep's fast path. It reports whether a wake keyed
// (t, 0, seq+1) is the next event runUntil would pop — inside the
// window, with the queue's top later or a same-time arrival — and if so
// does the push-and-pop bookkeeping in its place. A Timer's queued
// entry is never later than its live deadline, so a reserved timer key
// that is not queued cannot sort before the wake either.
func (e *Engine) selfWake(t Time) bool {
	if t >= e.horizon {
		return false
	}
	if e.queue.Len() > 0 {
		if top := e.queue.peek(); top.t < t || top.t == t && top.pri == 0 {
			return false
		}
	}
	e.seq++
	e.queue.bypass()
	e.now = t
	e.events++
	return true
}

// nextEventTime reports the timestamp of the earliest pending event, or
// false when the queue is empty.
func (e *Engine) nextEventTime() (Time, bool) {
	if e.queue.Len() == 0 {
		return 0, false
	}
	return e.queue.peek().t, true
}

// advanceTo moves the clock forward to t without executing anything.
// The Group uses it before coordinator globals, when it parks at a run
// limit, and when a run ends, so that reads outside shard events
// (utilization extrapolation, energy integration) see a consistent
// "now" on every shard. Moving backwards is a no-op.
func (e *Engine) advanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// dispatch fires a popped event that is not a plain call: a timer
// entry or a process-lifecycle event.
func (e *Engine) dispatch(ev *event) {
	if ev.kind == evTimer {
		e.expiring = ev.seq
		ev.fn()
		return
	}
	e.resumeProc(ev.kind, ev.p)
}

// resumeProc fires a process-lifecycle event. Each kind checks the
// target's state first: a stale wake (the engine was closed and the
// process reaped, or a start raced a kill) is dropped, mirroring the
// guards the closure-based events used to carry. Delivered values are
// already sitting in p.wakeVal (deliverAt stores them when the wake is
// scheduled), so no payload crosses the event queue.
func (e *Engine) resumeProc(kind eventKind, p *Proc) {
	var want procState
	switch kind {
	case evStart:
		want = procCreated
	case evWake:
		want = procParked
	case evDeliver:
		want = procWaking
	}
	if p.state != want {
		return
	}
	p.state = procRunning
	e.switches++
	p.resume <- resumeGo
	<-e.park
}

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.queue.Len() }

// Counters are an engine's deterministic work counts: the same
// simulation yields the same counts on any machine. Events and HeapPeak
// are also the same at any shard count and lookahead; Switches is not,
// because a Sleep whose wake lies at or past the window horizon must
// switch.
type Counters struct {
	Events   int // queue entries dispatched, including Sleep wakes that skipped the queue and timer entries that re-queued or were discarded
	HeapPeak int // most entries ever pending in the queue at once
	Switches int // dispatches that handed control to a process goroutine
}

// Counters reports the work the engine has done so far.
func (e *Engine) Counters() Counters {
	return Counters{Events: e.events, HeapPeak: e.queue.peak, Switches: e.switches}
}

// Blocked reports how many waiters — live processes parked on a
// primitive, and callback waiters queued on a Cond — have nothing
// scheduled to wake them right now. It is meaningful after Group.Run
// returns; a deadlocked run reports the sum over its shards.
func (e *Engine) Blocked() int { return e.blocked }

// Live reports the number of processes that have been spawned and have
// not yet terminated.
func (e *Engine) Live() int { return len(e.procs) }

// Close terminates every live process by unwinding its goroutine, then
// marks the engine unusable. It must be called once a simulation is
// finished if any process may still be blocked (for example after a
// deadlock or a truncated run); otherwise those goroutines would leak for
// the lifetime of the host program. Close is idempotent.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	// Created, parked, and waking processes are all blocked on their
	// resume channel (initial start wait, primitive wait, or scheduled
	// wake that will now never fire); a kill signal unwinds each.
	for p := range e.procs {
		switch p.state {
		case procCreated, procParked, procWaking:
			p.resume <- resumeKill
			<-e.park
		}
	}
	e.procs = nil
}
