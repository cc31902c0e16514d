package sim

// Cond is a condition-style wait queue. Processes block on Wait and
// callback state machines register with WaitFunc, all in one FIFO; any
// code running under the engine (another process or an event callback)
// releases them with Signal or Broadcast. A value can be handed to the
// woken waiter, which is how the MPI matching layer transfers messages
// without an extra queue hop.
type Cond struct {
	eng     *Engine
	waiters []waiter
}

// waiter is one queued Cond waiter: a parked process, or a callback.
type waiter struct {
	p *Proc
	w *Wakeup // set when p is nil
}

// Wakeup is a callback waiter for WaitFunc: a state machine that waits
// without a process embeds one and sets Fn to its resume step once. The
// waker stores its value in Val before Fn runs.
type Wakeup struct {
	Fn  func() // scheduled when the waiter is woken
	Val any    // the value the waker handed over
}

// NewCond returns an empty wait queue bound to e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Len reports the number of waiters currently queued.
func (c *Cond) Len() int { return len(c.waiters) }

// Wait parks the calling process until a Signal or Broadcast releases it,
// and returns the value the waker attached (nil for Broadcast).
func (c *Cond) Wait(p *Proc) any {
	c.waiters = append(c.waiters, waiter{p: p})
	return p.yield(true)
}

// WaitFunc queues w as a callback waiter, the event-driven counterpart
// of Wait for state machines that run without a process of their own.
// The waker stores its value in w.Val and schedules w.Fn at the current
// time, consuming one engine sequence number exactly where a process
// wake would, so swapping a parked process for a callback keeps the
// event order. Until woken, w counts as blocked, so a callback that
// nothing ever signals still surfaces ErrDeadlock.
func (c *Cond) WaitFunc(w *Wakeup) {
	c.waiters = append(c.waiters, waiter{w: w})
	c.eng.blocked++
}

// Signal wakes the longest-waiting waiter, handing it val, and reports
// whether anyone was waiting. The woken waiter resumes at the current
// virtual time, after already-queued events.
func (c *Cond) Signal(val any) bool {
	if len(c.waiters) == 0 {
		return false
	}
	w := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters = c.waiters[:len(c.waiters)-1]
	c.wake(w, val)
	return true
}

// Broadcast wakes every waiter (each receives nil) and returns the
// number woken.
func (c *Cond) Broadcast() int {
	n := len(c.waiters)
	for _, w := range c.waiters {
		c.wake(w, nil)
	}
	c.waiters = c.waiters[:0]
	return n
}

// wake resumes one dequeued waiter at the current time.
//
//lint:hotpath every Cond wake of a process or callback goes through here
func (c *Cond) wake(w waiter, val any) {
	if w.p != nil {
		w.p.deliverAt(c.eng.now, val)
		return
	}
	w.w.Val = val
	c.eng.blocked--
	c.eng.Schedule(c.eng.now, w.w.Fn)
}

// Remove withdraws p from the wait queue without waking it, reporting
// whether it was present. It supports wait-with-guard patterns where a
// process is parked on several queues conceptually and the winning waker
// must cancel the others before delivery.
func (c *Cond) Remove(p *Proc) bool {
	for i, w := range c.waiters {
		if w.p == p {
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			return true
		}
	}
	return false
}
