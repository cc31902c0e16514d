package sim

import (
	"errors"
	"fmt"
)

// errKilled unwinds a process goroutine when the engine is closed. It is
// recovered by the process wrapper and never escapes to user code.
var errKilled = errors.New("sim: process killed")

type resumeSignal int

const (
	resumeGo resumeSignal = iota
	resumeKill
)

type procState int

const (
	procCreated procState = iota // spawned, start event not yet fired
	procRunning                  // currently executing user code
	procParked                   // blocked on a primitive, awaiting a waker
	procWaking                   // a wake event has been scheduled
	procDone                     // body returned or unwound
)

// Proc is a simulated process: a goroutine whose execution is interleaved
// with other processes under the engine's control so that exactly one
// process (or the engine itself) runs at any moment. A Proc handle is
// only valid inside the process's own body function; passing it to
// another process and calling its blocking methods there corrupts the
// scheduler.
type Proc struct {
	eng     *Engine
	name    string
	resume  chan resumeSignal
	state   procState
	counted bool // contributes to eng.blocked
	wakeVal any  // value handed over by the waker (Cond.Signal)
}

// Spawn creates a process named name whose body fn starts executing at
// the current virtual time (once the engine regains control). The name
// appears in traces and panic messages.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	return e.SpawnAt(e.now, name, fn)
}

// SpawnAt is Spawn with an explicit start time, which must not be in the
// past.
func (e *Engine) SpawnAt(t Time, name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan resumeSignal),
		state:  procCreated,
	}
	e.procs[p] = struct{}{}
	go p.run(fn)
	e.scheduleEvent(event{t: t, kind: evStart, p: p})
	return p
}

// run is the goroutine wrapper around the process body.
func (p *Proc) run(fn func(p *Proc)) {
	if <-p.resume == resumeKill {
		p.finish()
		return
	}
	defer func() {
		if r := recover(); r != nil && r != errKilled { //nolint:errorlint // sentinel identity
			// Record user panics on the engine so Group.Run reports
			// them as an error on the caller's goroutine instead of
			// crashing this detached one.
			if p.eng.failure == nil {
				p.eng.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
			}
		}
		p.finish()
	}()
	fn(p)
}

// finish marks the process terminated and returns control to the engine.
func (p *Proc) finish() {
	p.state = procDone
	if p.counted {
		p.counted = false
		p.eng.blocked--
	}
	delete(p.eng.procs, p)
	p.eng.park <- struct{}{}
}

// yield parks the calling process until a wake is delivered, then returns
// the value the waker attached. counted reports whether the process
// should be considered "blocked with no scheduled wake" for deadlock
// accounting (true for conditions, false for Sleep,
// whose wake event is already queued).
func (p *Proc) yield(counted bool) any {
	if p.state != procRunning {
		panic("sim: blocking call from outside the process body") //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
	}
	p.state = procParked
	p.counted = counted
	if counted {
		p.eng.blocked++
	}
	p.eng.park <- struct{}{}
	if <-p.resume == resumeKill {
		panic(errKilled) //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
	}
	v := p.wakeVal
	p.wakeVal = nil
	return v
}

// deliverAt schedules the parked process to resume at time t with val
// available as the yield result. The caller must ensure the process is
// currently parked; deliverAt transitions it to the waking state so no
// other waker can race.
//
//lint:hotpath every blocking primitive wakes through here
func (p *Proc) deliverAt(t Time, val any) {
	if p.state != procParked {
		panic("sim: wake of a process that is not parked") //lint:allow panicfree (simulation-kernel invariant; a broken event loop cannot continue)
	}
	p.state = procWaking
	if p.counted {
		p.counted = false
		p.eng.blocked--
	}
	// Store the value on the process now rather than boxing it into the
	// event: the procWaking transition guarantees no other waker can
	// touch wakeVal before the resume fires.
	p.wakeVal = val
	p.eng.scheduleEvent(event{t: t, kind: evDeliver, p: p})
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep suspends the process for d of virtual time. Zero or negative d
// still orders the process after same-time events scheduled earlier.
//
// Sleep yields to the engine only when something else could run first:
// when the wake lies at or past the horizon of the window in progress,
// or an event already queued sorts before it (an earlier event, or a
// local event at the same time — the wake would take a later sequence
// number). Otherwise the wake is the very next event the engine would
// pop, so Sleep does that event's bookkeeping itself and returns with
// no queue entry and no process switch. The shortcut is exact: the
// sequence counter, the clock, the queue's high-water mark and the
// dispatch count move exactly as a queued wake would move them, so the
// event order and Counters' Events and HeapPeak are unchanged.
//
//lint:hotpath every simulated compute burst ends in a Sleep; it must stay allocation-free
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	t := p.eng.now.Add(d)
	if p.state == procRunning && p.eng.selfWake(t) {
		return
	}
	// Queue the wake before parking. The engine cannot run events while
	// this process holds control, so the wake cannot fire early; the
	// evWake dispatch's procParked guard protects against firing after a
	// Close reaped us. No closure and no boxed wake value: the entire
	// Sleep/wake round trip is allocation-free.
	p.eng.scheduleEvent(event{t: t, kind: evWake, p: p})
	p.yield(false)
}

// SleepUntil suspends the process until absolute time t (no-op if t is
// not in the future beyond event ordering).
func (p *Proc) SleepUntil(t Time) {
	if t < p.eng.now {
		t = p.eng.now
	}
	p.Sleep(t.Sub(p.eng.now))
}
