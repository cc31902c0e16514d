// Package netsim models the cluster interconnect: a non-blocking
// store-and-forward Ethernet switch (the paper's Cisco Catalyst 2950)
// with one full-duplex 100 Mb port per node.
//
// The model is message-granular rather than frame-granular: a transfer
// occupies the sender's transmit link and the receiver's receive link
// for its serialization time, pipelined through the switch with a fixed
// cut-through latency. Per-link "next free" bookkeeping gives exact
// first-come-first-served contention (fan-in to one receiver serializes
// on its port, which is what makes the parallel-transpose gather a
// bottleneck) without simulating millions of frames.
//
// Booking is split in two so the model works when sender and receiver
// live on different event-core shards: Send books the transmit link
// from sender context and computes the arrival time (first byte at the
// receiver port); Accept books the receive link from receiver context
// when that arrival fires, serializing fan-in in arrival order. The
// receive-side queueing that used to be resolved by a shared
// "earliest rx slot" lookup at send time is instead resolved by the
// receiver shard's O(log n) event heap ordering the arrival events —
// no state is read across the shard boundary, and for a fixed arrival
// order the delivery times are identical to the old single-stage
// model: max(arrive, rxFree) + ser == max(arrive - lat, rxFree - lat)
// + lat + ser.
package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes the interconnect fabric.
type Config struct {
	// BandwidthBytesPerSec is the effective per-direction link
	// bandwidth after protocol overheads. Raw 100 Mb/s Ethernet under
	// MPICH-over-TCP sustains roughly 9.5 MB/s.
	BandwidthBytesPerSec float64
	// Latency is the end-to-end message latency excluding
	// serialization: switch cut-through plus wire plus interrupt
	// plumbing.
	Latency sim.Duration
}

// Default100Mb returns the calibrated model of the paper's fabric:
// switched 100 Mb Ethernet under MPICH 1.2.5/TCP.
func Default100Mb() Config {
	return Config{
		BandwidthBytesPerSec: 9.5e6,
		Latency:              45 * sim.Microsecond,
	}
}

// Switch is the interconnect instance. All methods must be called from
// engine context (process bodies or event callbacks). Under a sharded
// group, Send/Control must run on the source port's shard and Accept on
// the destination port's shard: every field below is indexed by the
// port whose shard writes it, so shards never touch each other's
// cachelines and the model needs no locks.
type Switch struct {
	eng    *sim.Engine
	cfg    Config
	txFree []sim.Time
	rxFree []sim.Time

	portMsgs  []int64 // messages sent, per source port
	portBytes []int64 // bytes sent, per source port
}

// New builds a switch with ports full-duplex ports.
//
//lint:range ports [1,inf]
func New(eng *sim.Engine, ports int, cfg Config) *Switch {
	if ports <= 0 {
		panic(fmt.Sprintf("netsim: %d ports", ports)) //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	if cfg.BandwidthBytesPerSec <= 0 {
		panic("netsim: non-positive bandwidth") //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	if cfg.Latency < 0 {
		panic("netsim: negative latency") //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	return &Switch{
		eng:       eng,
		cfg:       cfg,
		txFree:    make([]sim.Time, ports),
		rxFree:    make([]sim.Time, ports),
		portMsgs:  make([]int64, ports),
		portBytes: make([]int64, ports),
	}
}

// Ports returns the number of switch ports.
func (s *Switch) Ports() int { return len(s.txFree) }

// Config returns the fabric configuration.
func (s *Switch) Config() Config { return s.cfg }

// SerializationTime returns how long size bytes occupy a link.
func (s *Switch) SerializationTime(size int64) sim.Duration {
	if size <= 0 {
		return 0
	}
	return sim.DurationOf(float64(size) / s.cfg.BandwidthBytesPerSec)
}

// MinLatency reports the smallest delay any message can experience
// between leaving a sender and becoming visible at a receiver. It is
// the conservative lookahead bound for sharded runs: a cross-shard
// interaction initiated at t can never matter to its target before
// t + MinLatency().
func (s *Switch) MinLatency() sim.Duration { return s.cfg.Latency }

// Send books the transmit side of a message of size bytes from port src
// to port dst, starting no earlier than now. It returns start (when the
// first byte leaves the sender, i.e. when the transmit link is free)
// and arrive (when the first byte reaches the receiver port, one switch
// latency later). The caller must complete the booking by calling
// Accept from receiver context at arrive; fan-in contention on the
// receive link is resolved there, in arrival order.
//
//lint:hotpath runs once per simulated message
func (s *Switch) Send(src, dst int, size int64, now sim.Time) (start, arrive sim.Time) {
	if src == dst {
		s.selfTransferPanic(src)
	}
	s.checkPort(src)
	s.checkPort(dst)
	start = now
	if s.txFree[src] > start {
		start = s.txFree[src]
	}
	s.txFree[src] = start.Add(s.SerializationTime(size))
	arrive = start.Add(s.cfg.Latency)
	s.portMsgs[src]++
	s.portBytes[src] += size
	return start, arrive
}

// Accept books the receive side of a message whose first byte reaches
// dst at arrive (as returned by Send) and returns deliver, when the
// last byte has been copied in behind any earlier arrivals still
// occupying the receive link.
//
//lint:hotpath runs once per simulated message
//lint:allow profgate (an O(1) link booking per message stays below CPU-profile resolution in every profiled workload; the root keeps the per-message path allocation-free rather than marking CPU cost)
func (s *Switch) Accept(src, dst int, size int64, arrive sim.Time) (deliver sim.Time) {
	s.checkPort(src)
	s.checkPort(dst)
	deliver = arrive
	if s.rxFree[dst] > deliver {
		deliver = s.rxFree[dst]
	}
	deliver = deliver.Add(s.SerializationTime(size))
	s.rxFree[dst] = deliver
	return deliver
}

// Transfer books a whole message from port src to port dst starting no
// earlier than the engine clock, and returns the interval it occupies:
// start (when the first byte leaves the sender) and deliver (when the
// last byte arrives at the receiver). It is the single-shard
// convenience form of Send followed immediately by Accept; sharded
// callers split the two stages across the owning shards instead.
func (s *Switch) Transfer(src, dst int, size int64) (start, deliver sim.Time) {
	start, arrive := s.Send(src, dst, size, s.eng.Now())
	deliver = s.Accept(src, dst, size, arrive)
	return start, deliver
}

// Control books a small protocol message (RTS/CTS handshakes, ACKs)
// from src to dst at time now without occupying the links: real stacks
// interleave tiny control packets into bulk streams rather than
// queueing them behind megabytes of data, so they see only
// serialization plus switch latency. It returns the delivery time.
func (s *Switch) Control(src, dst int, size int64, now sim.Time) (deliver sim.Time) {
	if src == dst {
		s.selfTransferPanic(src)
	}
	s.checkPort(src)
	s.checkPort(dst)
	s.portMsgs[src]++
	s.portBytes[src] += size
	return now.Add(s.SerializationTime(size) + s.cfg.Latency)
}

func (s *Switch) selfTransferPanic(port int) {
	panic(fmt.Sprintf("netsim: self-transfer on port %d", port)) //lint:allow panicfree (network-model invariant; port/size misuse is a simulator bug)
}

// TxBusyUntil reports when the port's transmit link frees up.
func (s *Switch) TxBusyUntil(port int) sim.Time {
	s.checkPort(port)
	return s.txFree[port]
}

// RxBusyUntil reports when the port's receive link frees up.
func (s *Switch) RxBusyUntil(port int) sim.Time {
	s.checkPort(port)
	return s.rxFree[port]
}

// Stats reports the total messages and bytes transferred. The totals
// are summed from per-source-port counters (each written only by the
// port's owning shard), so call it only between windows or after a run.
func (s *Switch) Stats() (messages, bytes int64) {
	for p := range s.portMsgs {
		messages += s.portMsgs[p]
		bytes += s.portBytes[p]
	}
	return messages, bytes
}

// PortBytes reports the bytes sent from port.
func (s *Switch) PortBytes(port int) int64 {
	s.checkPort(port)
	return s.portBytes[port]
}

func (s *Switch) checkPort(p int) {
	if p < 0 || p >= len(s.txFree) {
		s.portRangePanic(p)
	}
}

// portRangePanic is the cold half of checkPort, split out so the hot
// Send/Accept paths stay allocation-free and inlinable.
func (s *Switch) portRangePanic(p int) {
	panic(fmt.Sprintf("netsim: port %d out of range [0,%d)", p, len(s.txFree))) //lint:allow panicfree (network-model invariant; port/size misuse is a simulator bug)
}

// Gigabit returns a switched gigabit Ethernet model (an interconnect
// upgrade ablation: as the network gets faster, communication slack —
// and with it DVS savings on comm-bound codes — shrinks).
func Gigabit() Config {
	return Config{
		BandwidthBytesPerSec: 85e6,
		Latency:              25 * sim.Microsecond,
	}
}
