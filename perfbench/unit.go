package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/dvs"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// workload is one benchmark workload. setup parses the generated input,
// builds what the units need and runs one untimed warm-up; unit runs
// one unit of work, traced when ut is non-nil.
type workload interface {
	setup(input []byte) (parseS float64, err error)
	unit(ut *unitTrace) (unitResult, error)
}

// unitResult is what one unit reports back.
type unitResult struct {
	cost          // of the measured work
	digest string // SHA-256 over every output
	// Workload-specific extras (zero where they do not apply).
	baseWall float64 // ft256-sharded: the paired 1-shard wall
	paperErr float64 // paper-matrix: paper_err_pct
}

// cost is what one measured piece of work took on the host.
type cost struct {
	wall, cpu     float64 // elapsed seconds, and process CPU seconds (user + system)
	allocs, bytes uint64  // heap objects and bytes allocated
}

// measure runs fn after a collection and reports its cost.
func measure(fn func() error) (cost, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	c := cost{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&after)
	c.allocs, c.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return c, err
}

// cpuSeconds is the CPU time the process has used so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runRecord is what the probes saw of one RunOnce call.
type runRecord struct {
	wall, build, collect, install float64 // host seconds
	regionCalls                   int64
	events, transitions           int64
	busy, idle                    sim.Duration
}

// unitTrace collects the per-layer observations of one traced unit.
// RunOnce calls may run concurrently (paper-matrix cells), so shared
// lists are guarded.
type unitTrace struct {
	tr     *tracer
	unitID int64

	mu      sync.Mutex
	runs    []runRecord
	fabrics []*fabricProbe
	sinks   map[string]*sinkProbe

	// Filled by the workload that has the layer, zero elsewhere.
	execBusy, execTail   float64
	archiveBytes         int64
	replayNs, replayRows int64
}

func newUnitTrace(tr *tracer, unitID int64) *unitTrace {
	return &unitTrace{tr: tr, unitID: unitID, sinks: map[string]*sinkProbe{}}
}

// fabricFactory returns a cluster.Config.Fabric factory that wraps the default
// switch in a counting probe registered with the unit current() names.
func fabricFactory(net netsim.Config, current func() *unitTrace) func(*sim.Engine, int) netsim.Fabric {
	return func(eng *sim.Engine, ports int) netsim.Fabric {
		u := current()
		p := &fabricProbe{inner: netsim.New(eng, ports, net), tr: u.tr}
		u.mu.Lock()
		u.fabrics = append(u.fabrics, p)
		u.mu.Unlock()
		return p
	}
}

// sink wraps s in a counting probe recorded under name.
func (u *unitTrace) sink(name string, s trace.Sink) trace.Sink {
	p := &sinkProbe{inner: s, tr: u.tr}
	u.mu.Lock()
	u.sinks[name] = p
	u.mu.Unlock()
	return p
}

// runOnce calls r.RunOnce with probes on the strategy and the workload,
// inside a span under parent, and records what they saw.
func (u *unitTrace) runOnce(parent int64, r *cluster.Runner, w workloads.Workload, s dvs.Strategy, idx int, seed int64) (*cluster.Result, error) {
	p := newRunProbe(u.tr)
	id, start := u.tr.begin()
	res, err := r.RunOnce(p.workload(w), p.strategy(s), idx, seed)
	wall := u.tr.end(id, parent, "cluster.RunOnce", start)
	if err != nil {
		return nil, err
	}
	rec := runRecord{
		wall:        secs(wall),
		install:     secs(p.installNs),
		regionCalls: p.regionCalls.Load(),
		events:      int64(len(res.Events)),
	}
	if p.bodies.Load() > 0 {
		rec.build = secs(p.firstEntry.Load() - start)
		rec.collect = secs(start + wall - p.lastExit.Load())
	}
	for _, n := range res.Nodes {
		rec.transitions += int64(n.Transitions)
		rec.busy += n.Busy
		rec.idle += n.Idle
	}
	u.mu.Lock()
	u.runs = append(u.runs, rec)
	u.mu.Unlock()
	return res, nil
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }
