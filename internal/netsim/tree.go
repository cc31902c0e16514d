package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// Fabric is the interconnect abstraction the MPI runtime drives. Switch
// (single-tier) and Tree (two-tier, oversubscribed) both implement it.
// Bulk transfers are booked in two stages so sender and receiver can
// live on different event-core shards: Send from sender context,
// Accept from receiver context when the arrival fires.
type Fabric interface {
	// Ports reports the number of host ports.
	Ports() int
	// SerializationTime returns how long size bytes occupy a host link.
	SerializationTime(size int64) sim.Duration
	// MinLatency reports the minimum sender-to-receiver delay; it bounds
	// the conservative lookahead for sharded runs.
	MinLatency() sim.Duration
	// Send books the transmit side of a bulk message at time now and
	// returns when its first byte leaves the sender and when it reaches
	// the receiver port.
	Send(src, dst int, size int64, now sim.Time) (start, arrive sim.Time)
	// Accept books the receive side at the arrival time returned by Send
	// and returns when the last byte lands.
	Accept(src, dst int, size int64, arrive sim.Time) (deliver sim.Time)
	// Control delivers a small protocol message sent at time now on the
	// priority path.
	Control(src, dst int, size int64, now sim.Time) (deliver sim.Time)
}

// Switch implements Fabric.
var _ Fabric = (*Switch)(nil)

// TreeConfig describes a two-tier interconnect: hosts attach to edge
// switches; edge switches attach to a core switch through uplinks that
// may be oversubscribed (slower than the sum of their host links).
type TreeConfig struct {
	// Host is the host-link model (bandwidth, edge-hop latency).
	Host Config
	// PortsPerEdge is the number of hosts per edge switch.
	PortsPerEdge int
	// UplinkBandwidthBytesPerSec is the edge-to-core link speed.
	UplinkBandwidthBytesPerSec float64
	// CoreLatency is the extra latency of crossing the core.
	CoreLatency sim.Duration
}

// Tree is a two-tier fabric. Intra-edge traffic behaves like a single
// switch; inter-edge traffic additionally serializes on the source
// edge's uplink and the destination edge's downlink, which is where
// oversubscription bites.
type Tree struct {
	eng    *sim.Engine
	cfg    TreeConfig
	ports  int
	txFree []sim.Time
	rxFree []sim.Time
	upFree []sim.Time // per edge switch: uplink toward the core
	dnFree []sim.Time // per edge switch: downlink from the core

	messages int64
	bytes    int64
}

// NewTree builds a tree fabric with the given number of host ports.
func NewTree(eng *sim.Engine, ports int, cfg TreeConfig) *Tree {
	if ports <= 0 {
		panic(fmt.Sprintf("netsim: %d ports", ports)) //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	if cfg.PortsPerEdge <= 0 || cfg.PortsPerEdge > ports {
		panic("netsim: invalid PortsPerEdge") //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	if cfg.Host.BandwidthBytesPerSec <= 0 || cfg.UplinkBandwidthBytesPerSec <= 0 {
		panic("netsim: non-positive bandwidth") //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	if cfg.Host.Latency < 0 || cfg.CoreLatency < 0 {
		panic("netsim: negative latency") //lint:allow panicfree (constructor misuse; topology config is fixed at build time)
	}
	edges := (ports + cfg.PortsPerEdge - 1) / cfg.PortsPerEdge
	return &Tree{
		eng:    eng,
		cfg:    cfg,
		ports:  ports,
		txFree: make([]sim.Time, ports),
		rxFree: make([]sim.Time, ports),
		upFree: make([]sim.Time, edges),
		dnFree: make([]sim.Time, edges),
	}
}

// Ports implements Fabric.
func (t *Tree) Ports() int { return t.ports }

// Edges reports the number of edge switches.
func (t *Tree) Edges() int { return len(t.upFree) }

// EdgeOf reports which edge switch a host port attaches to.
func (t *Tree) EdgeOf(port int) int {
	t.checkPort(port)
	return port / t.cfg.PortsPerEdge
}

// SerializationTime implements Fabric (host-link rate).
func (t *Tree) SerializationTime(size int64) sim.Duration {
	if size <= 0 {
		return 0
	}
	return sim.DurationOf(float64(size) / t.cfg.Host.BandwidthBytesPerSec)
}

func (t *Tree) uplinkSer(size int64) sim.Duration {
	if size <= 0 {
		return 0
	}
	return sim.DurationOf(float64(size) / t.cfg.UplinkBandwidthBytesPerSec)
}

// MinLatency implements Fabric: the intra-edge hop is the fastest path.
func (t *Tree) MinLatency() sim.Duration { return t.cfg.Host.Latency }

// Send implements Fabric. Unlike the flat switch, the tree's shared
// uplink/downlink state couples ports on the same edge, so a Tree is
// only valid on a single shard (cluster.Config.Validate enforces this);
// the two-stage split still applies, with fan-in to the receive link
// resolved by Accept in arrival order.
func (t *Tree) Send(src, dst int, size int64, now sim.Time) (start, arrive sim.Time) {
	if src == dst {
		t.selfTransferPanic(src)
	}
	t.checkPort(src)
	t.checkPort(dst)
	serHost := t.SerializationTime(size)
	lat := t.cfg.Host.Latency

	es, ed := t.EdgeOf(src), t.EdgeOf(dst)
	if es == ed {
		// Intra-edge: identical to the single switch.
		start = maxTime(now, t.txFree[src])
		t.txFree[src] = start.Add(serHost)
		arrive = start.Add(lat)
	} else {
		// Inter-edge pipeline: host tx → uplink → core → downlink →
		// host rx. The slowest stage dominates the transfer; every
		// stage is booked busy for its own serialization time at its
		// pipeline offset.
		serUp := t.uplinkSer(size)
		totalLat := 2*lat + t.cfg.CoreLatency
		start = maxTime(now, t.txFree[src],
			t.upFree[es]-sim.Time(lat),
			t.dnFree[ed]-sim.Time(lat+t.cfg.CoreLatency))
		t.txFree[src] = start.Add(serHost)
		t.upFree[es] = start.Add(sim.Duration(lat) + serUp)
		t.dnFree[ed] = start.Add(sim.Duration(lat) + t.cfg.CoreLatency + serUp)
		arrive = start.Add(sim.Duration(totalLat))
	}
	t.messages++
	t.bytes += size
	return start, arrive
}

// Accept implements Fabric: the last byte lands one bottleneck-stage
// serialization behind whatever is still occupying the receive link.
func (t *Tree) Accept(src, dst int, size int64, arrive sim.Time) (deliver sim.Time) {
	t.checkPort(src)
	t.checkPort(dst)
	bottleneck := t.SerializationTime(size)
	if t.EdgeOf(src) != t.EdgeOf(dst) {
		if serUp := t.uplinkSer(size); serUp > bottleneck {
			bottleneck = serUp
		}
	}
	deliver = maxTime(arrive, t.rxFree[dst]).Add(bottleneck)
	t.rxFree[dst] = deliver
	return deliver
}

// Transfer books a whole message at the engine clock: Send followed
// immediately by Accept, the single-shard convenience form.
func (t *Tree) Transfer(src, dst int, size int64) (start, deliver sim.Time) {
	start, arrive := t.Send(src, dst, size, t.eng.Now())
	deliver = t.Accept(src, dst, size, arrive)
	return start, deliver
}

// Control implements Fabric: latency-only priority delivery, with the
// core hop added for inter-edge pairs.
func (t *Tree) Control(src, dst int, size int64, now sim.Time) (deliver sim.Time) {
	if src == dst {
		t.selfTransferPanic(src)
	}
	t.checkPort(src)
	t.checkPort(dst)
	t.messages++
	t.bytes += size
	lat := t.cfg.Host.Latency
	if t.EdgeOf(src) != t.EdgeOf(dst) {
		lat += t.cfg.Host.Latency + t.cfg.CoreLatency
	}
	return now.Add(t.SerializationTime(size) + lat)
}

func (t *Tree) selfTransferPanic(port int) {
	panic(fmt.Sprintf("netsim: self-transfer on port %d", port)) //lint:allow panicfree (network-model invariant; port/size misuse is a simulator bug)
}

// Stats reports the total messages and bytes transferred.
func (t *Tree) Stats() (messages, bytes int64) { return t.messages, t.bytes }

func (t *Tree) checkPort(p int) {
	if p < 0 || p >= t.ports {
		panic(fmt.Sprintf("netsim: port %d out of range [0,%d)", p, t.ports)) //lint:allow panicfree (network-model invariant; port/size misuse is a simulator bug)
	}
}

func maxTime(ts ...sim.Time) sim.Time {
	m := ts[0]
	for _, t := range ts[1:] {
		if t > m {
			m = t
		}
	}
	return m
}
