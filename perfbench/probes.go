package main

// Per-layer probes, all applied from outside the program: decorators
// around the public interfaces each layer exposes (netsim.Fabric,
// trace.Sink, dvs.Strategy, powerpack.RegionPolicy, workloads.Workload)
// plus spans around the calls the benchmark makes itself. Only calls
// that never block on another simulated process get host-time spans;
// rank bodies and region hooks get counts and first/last timestamps.

import (
	"encoding/json"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dvs"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/powerpack"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// span is one timed interval at a layer boundary. Times are host
// nanoseconds since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends and owns the
// liveness high-water mark sampled by the decorators.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	peak  atomic.Int64 // highest runtime.NumGoroutine seen
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id and start time; end closes it.
func (t *tracer) begin() (id, start int64) { return t.next.Add(1), t.now() }

// end records a finished span.
func (t *tracer) end(id, parent int64, name string, start int64) int64 {
	stop := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: stop})
	t.mu.Unlock()
	return stop - start
}

// sampleLive folds the current goroutine count into the peak.
func (t *tracer) sampleLive() {
	n := int64(runtime.NumGoroutine())
	for {
		old := t.peak.Load()
		if n <= old || t.peak.CompareAndSwap(old, n) {
			return
		}
	}
}

// writeSpans emits the recorded spans as JSON lines.
func (t *tracer) writeSpans(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// fabricProbe is a counting netsim.Fabric decorator for one run. A run
// with one shard books every message on one goroutine at a time, so
// the counters are plain integers read after RunOnce returns.
type fabricProbe struct {
	inner netsim.Fabric
	tr    *tracer

	sends, accepts, controls, bytes int64
	callNs                          int64
	queue                           sim.Duration // simulated time bookings waited for a busy link
}

func (f *fabricProbe) Ports() int { return f.inner.Ports() }
func (f *fabricProbe) SerializationTime(size int64) sim.Duration {
	return f.inner.SerializationTime(size)
}
func (f *fabricProbe) MinLatency() sim.Duration { return f.inner.MinLatency() }

func (f *fabricProbe) Send(src, dst int, size int64, now sim.Time) (start, arrive sim.Time) {
	t0 := time.Now()
	start, arrive = f.inner.Send(src, dst, size, now)
	f.callNs += int64(time.Since(t0))
	f.sends++
	f.bytes += size
	f.queue += start.Sub(now)
	if f.sends%256 == 0 {
		f.tr.sampleLive()
	}
	return start, arrive
}

func (f *fabricProbe) Accept(src, dst int, size int64, arrive sim.Time) sim.Time {
	t0 := time.Now()
	deliver := f.inner.Accept(src, dst, size, arrive)
	f.callNs += int64(time.Since(t0))
	f.accepts++
	f.queue += deliver.Sub(arrive) - f.inner.SerializationTime(size)
	return deliver
}

func (f *fabricProbe) Control(src, dst int, size int64, now sim.Time) sim.Time {
	t0 := time.Now()
	deliver := f.inner.Control(src, dst, size, now)
	f.callNs += int64(time.Since(t0))
	f.controls++
	f.bytes += size
	return deliver
}

// sinkProbe counts and times the ticks one trace.Sink receives.
type sinkProbe struct {
	inner          trace.Sink
	tr             *tracer
	ticks, samples int64
	tickNs         int64
}

func (s *sinkProbe) Begin(m trace.Meta) error { return s.inner.Begin(m) }
func (s *sinkProbe) End() error               { return s.inner.End() }

func (s *sinkProbe) Tick(at sim.Time, row []trace.Sample) error {
	t0 := time.Now()
	err := s.inner.Tick(at, row)
	s.tickNs += int64(time.Since(t0))
	s.ticks++
	s.samples += int64(len(row))
	if s.ticks%4096 == 0 {
		s.tr.sampleLive()
	}
	return err
}

// runProbe observes one RunOnce call: the strategy's Install, the
// region policy it returns, and the rank bodies. Rank bodies may run
// on several shards at once, so their fields are atomic.
type runProbe struct {
	tr *tracer

	installNs   int64
	regionCalls atomic.Int64
	bodies      atomic.Int64
	firstEntry  atomic.Int64 // tracer time of the first rank-body entry
	lastExit    atomic.Int64 // tracer time of the last rank-body exit
}

func newRunProbe(tr *tracer) *runProbe {
	p := &runProbe{tr: tr}
	p.firstEntry.Store(math.MaxInt64)
	return p
}

// strategy wraps s so its Install is timed and its policy counted.
func (p *runProbe) strategy(s dvs.Strategy) dvs.Strategy { return &strategyProbe{inner: s, p: p} }

// workload wraps w so its rank bodies are counted and bracketed.
func (p *runProbe) workload(w workloads.Workload) workloads.Workload {
	return &workloadProbe{Workload: w, p: p}
}

type strategyProbe struct {
	inner dvs.Strategy
	p     *runProbe
}

func (s *strategyProbe) Name() string { return s.inner.Name() }

func (s *strategyProbe) Install(ctx dvs.InstallCtx) powerpack.RegionPolicy {
	t0 := time.Now()
	pol := s.inner.Install(ctx)
	s.p.installNs += int64(time.Since(t0))
	if pol == nil {
		return nil // a nil policy means markers only; keep it nil
	}
	return &policyProbe{inner: pol, p: s.p}
}

type policyProbe struct {
	inner powerpack.RegionPolicy
	p     *runProbe
}

func (r *policyProbe) OnEnter(p *sim.Proc, n *machine.Node, region string) {
	r.p.regionCalls.Add(1)
	r.inner.OnEnter(p, n, region)
}

func (r *policyProbe) OnExit(p *sim.Proc, n *machine.Node, region string) {
	r.p.regionCalls.Add(1)
	r.inner.OnExit(p, n, region)
}

type workloadProbe struct {
	workloads.Workload
	p *runProbe
}

func (w *workloadProbe) Run(ctx workloads.Ctx) {
	p := w.p
	p.bodies.Add(1)
	for at := p.tr.now(); ; {
		old := p.firstEntry.Load()
		if at >= old || p.firstEntry.CompareAndSwap(old, at) {
			break
		}
	}
	p.tr.sampleLive()
	w.Workload.Run(ctx)
	p.tr.sampleLive()
	for at := p.tr.now(); ; {
		old := p.lastExit.Load()
		if at <= old || p.lastExit.CompareAndSwap(old, at) {
			break
		}
	}
}

// goMetrics are the runtime/metrics samples read around a unit.
var goMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

type goSnapshot []metrics.Sample

func readGo() goSnapshot {
	s := make(goSnapshot, len(goMetricNames))
	for i, n := range goMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// goDelta accumulates runtime/metrics differences over several units.
type goDelta struct {
	gcCPU, idleCPU, totalCPU float64
	gcCycles                 uint64
	schedCounts              []uint64
	schedBuckets             []float64
}

func (d *goDelta) add(before, after goSnapshot) {
	d.gcCPU += after[0].Value.Float64() - before[0].Value.Float64()
	d.idleCPU += after[1].Value.Float64() - before[1].Value.Float64()
	d.totalCPU += after[2].Value.Float64() - before[2].Value.Float64()
	d.gcCycles += after[3].Value.Uint64() - before[3].Value.Uint64()
	hb, ha := before[4].Value.Float64Histogram(), after[4].Value.Float64Histogram()
	if d.schedCounts == nil {
		d.schedCounts = make([]uint64, len(ha.Counts))
		d.schedBuckets = ha.Buckets
	}
	for i := range ha.Counts {
		d.schedCounts[i] += ha.Counts[i] - hb.Counts[i]
	}
}

// schedP90 returns the upper bound, in seconds, of the histogram bucket
// holding the 90th-percentile scheduling latency.
func (d *goDelta) schedP90() float64 {
	var total uint64
	for _, c := range d.schedCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	var cum uint64
	for i, c := range d.schedCounts {
		cum += c
		if float64(cum) >= 0.9*float64(total) {
			hi := d.schedBuckets[i+1]
			if math.IsInf(hi, 1) {
				hi = d.schedBuckets[i]
			}
			return hi
		}
	}
	return 0
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
