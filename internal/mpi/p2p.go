package mpi

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// Send transmits size bytes to rank dst with the given tag, blocking
// with MPI_Send semantics: eager messages return once handed to the
// transport; rendezvous messages return when the payload has drained to
// the receiver. payload travels with the message for tests and
// workloads that care about content.
func (r *Rank) Send(p *sim.Proc, dst, tag int, size int64, payload any) {
	r.checkRank(dst)
	checkUserTag(tag)
	r.send(p, dst, tag, size, payload)
}

// checkUserTag rejects tags outside the application range: negative
// values are wildcards and tags at or above the collective base are
// reserved for the collective algorithms.
func checkUserTag(tag int) {
	if tag < 0 || tag >= collectiveTagBase {
		panic(fmt.Sprintf("mpi: tag %d outside application range [0,%d)", tag, collectiveTagBase)) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
}

// send is Send without the tag guard, shared with the collectives
// (which use the reserved tag space).
func (r *Rank) send(p *sim.Proc, dst, tag int, size int64, payload any) {
	o := r.sendOp(dst, tag, size, payload)
	r.drive(p, &o)
}

// Recv blocks until a message matching (src, tag) arrives and returns
// it. src may be AnySource and tag may be AnyTag.
func (r *Rank) Recv(p *sim.Proc, src, tag int) *Message {
	if src != AnySource {
		r.checkRank(src)
	}
	return r.recv(p, src, tag)
}

// recv is Recv without the rank guard, shared with the collectives and
// sub-communicators.
func (r *Rank) recv(p *sim.Proc, src, tag int) *Message {
	o := r.recvOp(src, tag)
	return r.drive(p, &o)
}

// op is one point-to-point operation written as a state machine.
// advance runs the protocol from one suspension point to the next; the
// operation then either sleeps until a timed segment (a software
// overhead, a copy, a drain) ends or waits on a Cond for a protocol
// message. Two drivers run the same machine: drive, inside the calling
// rank's process, for blocking Send and Recv; and Request, as callbacks
// scheduled on the rank's engine, for Isend and Irecv. Each resume costs
// exactly one engine event under either driver — a process wake or a
// scheduled step — so both keep the same event order.
type op struct {
	r       *Rank
	phase   phase
	peer    int // destination (sends) or source pattern (receives)
	tag     int
	size    int64 // send size
	payload any
	seq     int64 // send envelope sequence, claimed when the send is posted
	handle  int64 // rendezvous handle (sends)

	token uint64     // node state token of the open segment or spin
	until sim.Time   // rendezvous drain end (sends)
	msg   *Message   // matched envelope, then the received message
	wake  sim.Wakeup // Cond wake slot: the Request's step, and the value handed over
}

// phase is where an op resumes next.
type phase uint8

const (
	sendOverhead   phase = iota // start: charge the per-message send cost
	sendCopy                    // overhead done: charge the per-byte copy
	sendPost                    // copy done: hand the message to the transport
	sendCTS                     // rendezvous clear-to-send arrived: stream the payload
	sendDrainBlock              // drain spun past the threshold: block for the rest
	sendDrained                 // payload left the sender
	recvOverhead                // start: charge the per-message receive cost
	recvMatch                   // overhead done: match or post the receive
	recvMatched                 // a posted receive was matched
	recvData                    // rendezvous payload arrived
	recvCopied                  // copy-out done
)

// sendOp prepares a send to dst. The envelope sequence number is
// claimed here, at posting time, so posting order defines matching
// order even when several sends are in flight.
func (r *Rank) sendOp(dst, tag int, size int64, payload any) op {
	seq := r.sendSeq[dst]
	r.sendSeq[dst] = seq + 1
	return op{r: r, phase: sendOverhead, peer: dst, tag: tag, size: size, payload: payload, seq: seq}
}

// recvOp prepares a receive matching (src, tag).
func (r *Rank) recvOp(src, tag int) op {
	return op{r: r, phase: recvOverhead, peer: src, tag: tag}
}

// advance runs the operation up to its next suspension point. It
// reports done once the operation has completed; otherwise the caller
// must resume it after a wake from c (non-nil) or at time at.
//
//lint:allow profgate (posting a receive, a rendezvous handshake and each message allocate their protocol state by design — bounded per-message state, not an event-core loop)
func (o *op) advance() (at sim.Time, c *sim.Cond, done bool) {
	r, n := o.r, o.r.node
	switch o.phase {
	case sendOverhead:
		o.phase = sendCopy
		return o.segment(machine.Compute, r.w.cfg.SendOverheadCycles), nil, false
	case sendCopy:
		n.EndSegment(o.token)
		if o.size > 0 {
			o.phase = sendPost
			return o.segment(machine.Copy, r.byteCycles(o.size)), nil, false
		}
		return o.post()
	case sendPost:
		n.EndSegment(o.token)
		return o.post()
	case sendCTS:
		n.SetState(machine.Idle)
		return o.stream()
	case sendDrainBlock:
		n.RestoreState(o.token, machine.Blocked)
		o.token = n.StateToken()
		o.phase = sendDrained
		return o.until, nil, false
	case sendDrained:
		n.EndSegment(o.token)
		return 0, nil, true
	case recvOverhead:
		o.phase = recvMatch
		return o.segment(machine.Compute, r.w.cfg.RecvOverheadCycles), nil, false
	case recvMatch:
		n.EndSegment(o.token)
		if o.msg = r.takeUnexpected(o.peer, o.tag); o.msg != nil {
			return o.complete()
		}
		o.phase = recvMatched
		return o.wait(r.postRecv(o.peer, o.tag))
	case recvMatched:
		n.SetState(machine.Idle)
		o.msg = o.wake.Val.(*Message)
		return o.complete()
	case recvData:
		n.SetState(machine.Idle)
		o.msg = o.wake.Val.(*Message)
		return o.copyOut()
	default: // recvCopied
		n.EndSegment(o.token)
		return o.received()
	}
}

// segment opens a timed work segment in state s and returns its end,
// where the operation resumes. Every message opens two to four.
//
//lint:hotpath
func (o *op) segment(s machine.State, cycles float64) sim.Time {
	end, token := o.r.node.BeginSegment(s, cycles)
	o.token = token
	return end
}

// wait enters the library's spin-then-block wait and suspends the
// operation on c.
func (o *op) wait(c *sim.Cond) (sim.Time, *sim.Cond, bool) {
	o.r.beginWait()
	return 0, c, false
}

// post hands a copied-in send to the transport: a self-send is matched
// locally at once, an eager message is transmitted and done, and a
// rendezvous send transmits its request-to-send and waits for the
// clear-to-send.
func (o *op) post() (sim.Time, *sim.Cond, bool) {
	r := o.r
	r.stats.MsgsSent++
	r.stats.BytesSent += o.size
	if o.peer == r.id || o.size <= r.w.cfg.EagerThreshold {
		m := &Message{Src: r.id, Dst: o.peer, Tag: o.tag, Size: o.size, Payload: o.payload, kind: kindEager, seq: o.seq}
		if o.peer == r.id {
			r.deliver(m)
		} else {
			r.transmit(m, o.size, o.size >= 1024)
		}
		return 0, nil, true
	}
	r.nextHandle++
	o.handle = r.nextHandle
	cts := sim.NewCond(r.eng())
	r.rendezvous[o.handle] = cts
	r.transmitControl(&Message{Src: r.id, Dst: o.peer, Tag: o.tag, Size: o.size, kind: kindRTS, handle: o.handle, seq: o.seq})
	o.phase = sendCTS
	return o.wait(cts)
}

// stream sends the rendezvous payload once the clear-to-send is in. The
// sender's progress engine actively pushes it through the socket until
// the last byte leaves the transmit link, spinning and eventually
// blocking exactly like a receive-side wait. The drain time is
// sender-local, so it needs no cross-shard state.
func (o *op) stream() (sim.Time, *sim.Cond, bool) {
	r, n := o.r, o.r.node
	data := &Message{Src: r.id, Dst: o.peer, Tag: o.tag, Size: o.size, Payload: o.payload, kind: kindRData, handle: o.handle}
	o.until = r.transmit(data, o.size, true)
	now := r.eng().Now()
	if o.until <= now {
		return 0, nil, true
	}
	n.SetState(machine.Spin)
	o.token = n.StateToken()
	if thr := r.w.cfg.SpinThreshold; thr >= 0 && o.until.Sub(now) > thr {
		o.phase = sendDrainBlock
		return now.Add(thr), nil, false
	}
	o.phase = sendDrained
	return o.until, nil, false
}

// complete finishes the protocol for a matched envelope: copy-out for
// eager data, or the CTS/data exchange for a rendezvous RTS.
func (o *op) complete() (sim.Time, *sim.Cond, bool) {
	r, m := o.r, o.msg
	switch m.kind {
	case kindEager:
		return o.copyOut()
	case kindRTS:
		dw := sim.NewCond(r.eng())
		r.dataWait[rdKey{src: m.Src, handle: m.handle}] = dw
		r.transmitControl(&Message{Src: r.id, Dst: m.Src, Tag: m.Tag, Size: r.w.cfg.ControlBytes, kind: kindCTS, handle: m.handle})
		o.phase = recvData
		return o.wait(dw)
	}
	panic("mpi: matched a non-envelope message") //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
}

// copyOut charges the per-byte receive cost of the received message.
func (o *op) copyOut() (sim.Time, *sim.Cond, bool) {
	if o.msg.Size > 0 {
		o.phase = recvCopied
		return o.segment(machine.Copy, o.r.byteCycles(o.msg.Size)), nil, false
	}
	return o.received()
}

// received books the completed receive.
func (o *op) received() (sim.Time, *sim.Cond, bool) {
	o.r.stats.MsgsRecv++
	o.r.stats.BytesRecv += o.msg.Size
	return 0, nil, true
}

// drive runs o to completion inside process p, suspending the process
// wherever the operation suspends, and returns the received message
// (nil for sends).
func (r *Rank) drive(p *sim.Proc, o *op) *Message {
	for {
		at, c, done := o.advance()
		switch {
		case done:
			return o.msg
		case c != nil:
			o.wake.Val = c.Wait(p)
		default:
			p.SleepUntil(at)
		}
	}
}

// takeUnexpected removes and returns the oldest unexpected envelope
// matching (src, tag), or nil.
func (r *Rank) takeUnexpected(src, tag int) *Message {
	for i, m := range r.unexpected {
		if matches(src, tag, m) {
			r.unexpected = append(r.unexpected[:i], r.unexpected[i+1:]...)
			return m
		}
	}
	return nil
}

// postRecv posts a receive for (src, tag) and returns the Cond its
// matching envelope is signalled on.
func (r *Rank) postRecv(src, tag int) *sim.Cond {
	pr := &postedRecv{src: src, tag: tag, cond: sim.NewCond(r.eng())}
	r.posted = append(r.posted, pr)
	return pr.cond
}

// Request tracks an outstanding Isend or Irecv. It is the operation's
// state machine itself, run by callbacks on the rank's engine rather
// than by a process of its own.
type Request struct {
	op
	done bool      // the operation has completed
	cond *sim.Cond // wakes Wait; made by the first Wait that finds the request pending
}

// Done reports whether the operation has completed.
func (q *Request) Done() bool { return q.done }

// start schedules o's first step at the current time and returns its
// Request.
func (r *Rank) start(o op) *Request {
	q := &Request{op: o}
	q.wake.Fn = q.resume // the one step closure, bound once
	r.eng().Schedule(r.eng().Now(), q.wake.Fn)
	return q
}

// resume runs the request to its next suspension point and arranges
// the step that continues it: one engine event per resume, scheduled
// at the same time and in the same order as the equivalent process
// wake. A request waiting on a Cond counts as blocked, so one that is
// never matched still surfaces as a deadlock.
func (q *Request) resume() {
	at, c, done := q.advance()
	switch {
	case done:
		q.done = true
		if q.cond != nil {
			q.cond.Broadcast()
		}
	case c != nil:
		c.WaitFunc(&q.wake)
	default:
		q.r.eng().Schedule(at, q.wake.Fn)
	}
}

// Isend starts a send and returns a Request for Wait. The send's CPU
// costs still hit this rank's node while the caller carries on.
func (r *Rank) Isend(p *sim.Proc, dst, tag int, size int64, payload any) *Request {
	r.checkRank(dst)
	checkUserTag(tag)
	return r.isend(dst, tag, size, payload)
}

// isend is Isend without the guards, shared with the collectives and
// sub-communicators.
func (r *Rank) isend(dst, tag int, size int64, payload any) *Request {
	return r.start(r.sendOp(dst, tag, size, payload))
}

// Irecv starts a receive and returns a Request; the matched message is
// available from Wait. Like Recv, the receive is posted for matching
// only after its per-message overhead (RecvOverheadCycles) has been
// charged, so envelopes that arrive before then queue as unexpected.
func (r *Rank) Irecv(p *sim.Proc, src, tag int) *Request {
	if src != AnySource {
		r.checkRank(src)
	}
	return r.start(r.recvOp(src, tag))
}

// Wait blocks until the request completes and returns its message
// (nil for sends).
func (r *Rank) Wait(p *sim.Proc, q *Request) *Message {
	if !q.done {
		if q.cond == nil {
			q.cond = sim.NewCond(r.eng())
		}
		r.waitOn(p, q.cond)
	}
	return q.msg
}

// Waitall waits for every request in order.
func (r *Rank) Waitall(p *sim.Proc, qs ...*Request) {
	for _, q := range qs {
		r.Wait(p, q)
	}
}

// Sendrecv runs a simultaneous send and receive — the pattern used by
// exchange steps — and returns the received message.
func (r *Rank) Sendrecv(p *sim.Proc, dst, sendTag int, size int64, payload any, src, recvTag int) *Message {
	sq := r.Isend(p, dst, sendTag, size, payload)
	m := r.Recv(p, src, recvTag)
	r.Wait(p, sq)
	return m
}

func (r *Rank) checkRank(id int) {
	if id < 0 || id >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", id, len(r.w.ranks))) //lint:allow panicfree (models MPI_Abort; rank/tag/count errors abort the MPI job)
	}
}

// Iprobe reports whether a message matching (src, tag) is available
// without receiving it, and if so returns its envelope (source and
// size). It charges a small progress-poll cost.
func (r *Rank) Iprobe(p *sim.Proc, src, tag int) (m *Message, ok bool) {
	r.node.Compute(p, r.w.cfg.RecvOverheadCycles/8)
	for _, u := range r.unexpected {
		if matches(src, tag, u) {
			return u, true
		}
	}
	return nil, false
}

// Probe blocks until a message matching (src, tag) is available and
// returns its envelope without consuming it; a subsequent Recv with the
// same pattern returns the message itself.
func (r *Rank) Probe(p *sim.Proc, src, tag int) *Message {
	if m, ok := r.Iprobe(p, src, tag); ok {
		return m
	}
	// Park on a posted recv, then put the envelope back at the front
	// of the unexpected queue so Recv can claim it.
	m := r.waitOn(p, r.postRecv(src, tag)).(*Message)
	r.unexpected = append([]*Message{m}, r.unexpected...)
	return m
}
