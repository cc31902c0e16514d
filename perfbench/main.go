// Command perfbench is the repository benchmark. It runs one seeded
// workload in a closed loop from a single process for a fixed time,
// checks every output, and prints its metrics as the last line of
// standard output:
//
//	perfbench --workload paper-matrix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and probed units and reports per-layer metrics.
// Inputs, per-unit records and spans are written under --out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 5

// minUnits is the fewest units of each kind a run times, however short
// --seconds is.
const minUnits = 3

func newWorkload(name string) (workload, error) {
	switch name {
	case "paper-matrix":
		return &paperMatrix{}, nil
	case "ft256-sharded":
		return &ft256{}, nil
	case "trace-long":
		return &traceLong{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-matrix, ft256-sharded or trace-long)", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// unitLog is the per-unit record written beside the run's output.
type unitLog struct {
	Traced   bool    `json:"traced"`
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	BaseS    float64 `json:"base_wall_s,omitempty"`
	Allocs   uint64  `json:"allocs"`
	Bytes    uint64  `json:"bytes"`
	Digest   string  `json:"digest,omitempty"`
	Error    string  `json:"error,omitempty"`
	PaperErr float64 `json:"paper_err_pct,omitempty"`
}

func main() {
	name := flag.String("workload", "", "paper-matrix, ft256-sharded or trace-long")
	seed := flag.Int64("seed", defaultSeed, "input seed")
	seconds := flag.Int("seconds", 20, "measuring time in seconds")
	traced := flag.Int("trace", 0, "1 for the probed per-layer run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for inputs, unit records and spans")
	writeRef := flag.String("write-reference", "", "record this run's digest as the workload's reference in the given file")
	flag.Parse()
	o := options{workload: *name, seed: *seed, seconds: *seconds, traced: *traced == 1, out: *out, writeRef: *writeRef}
	var err error
	if o.writeRef == "" {
		o.refs, err = references()
	}
	if err == nil {
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	out      string            // directory for inputs, unit records and spans
	refs     map[string]string // digests at defaultSeed, checked when seed is defaultSeed
	writeRef string            // file to record this run's digest in, if set
}

func run(o options, stdout io.Writer) error {
	start := time.Now()
	runtime.GOMAXPROCS(2)
	name, seed, traced := o.workload, o.seed, o.traced
	if o.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	input, err := generate(name, seed)
	if err != nil {
		return err
	}
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", name, seed, b2i(traced)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "input.json"), input, 0o644); err != nil {
		return err
	}

	// Set up several times; the last set-up is the one measured. The
	// first set-up counts from process start.
	var w workload
	var su setupCosts
	for i := 0; i < setupReps; i++ {
		t0, cpu0 := time.Now(), cpuSeconds()
		if i == 0 {
			t0, cpu0 = start, 0
		}
		if w, err = newWorkload(name); err != nil {
			return err
		}
		parseS, err := w.setup(input)
		if err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		su.wall = append(su.wall, time.Since(t0).Seconds())
		su.cpu = append(su.cpu, cpuSeconds()-cpu0)
		su.parse = append(su.parse, parseS)
	}

	tr := newTracer()
	var logs []unitLog
	var plain, probed []unitResult
	var traces []*unitTrace
	var goD goDelta
	// Every unit must reproduce the reference digest at defaultSeed,
	// and the first unit's digest otherwise.
	want, wantWhat := "", "unit vs first unit"
	if ref, ok := o.refs[name]; ok && seed == defaultSeed {
		want, wantWhat = ref, "unit vs reference digest for the default seed"
	}
	failed := 0
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; ; i++ {
		// Untraced units run at even i, probed ones (in a traced run) at odd i.
		probe := traced && i%2 == 1
		if !time.Now().Before(deadline) && i >= minUnits*(1+b2i(traced)) {
			break
		}
		id, t0 := tr.begin()
		var ut *unitTrace
		if probe {
			ut = newUnitTrace(tr, id)
		}
		g0 := readGo()
		res, err := w.unit(ut)
		g1 := readGo()
		label := "unit"
		if probe {
			label = "unit.traced"
		}
		tr.end(id, 0, label, t0)
		if err == nil {
			if want == "" {
				want = res.digest
			}
			err = sameDigest(wantWhat, res.digest, want)
		}
		lg := unitLog{Traced: probe, WallS: res.wall, CPUS: res.cpu, BaseS: res.baseWall, Allocs: res.allocs,
			Bytes: res.bytes, Digest: res.digest, PaperErr: res.paperErr}
		if err != nil {
			failed++
			lg.Error = err.Error()
			fmt.Fprintf(os.Stderr, "perfbench: %s unit %d: %v\n", name, i, err)
		}
		logs = append(logs, lg)
		if err != nil {
			continue
		}
		if probe {
			probed = append(probed, res)
			traces = append(traces, ut)
		} else {
			plain = append(plain, res)
			goD.add(g0, g1)
		}
	}
	if o.writeRef != "" && want != "" {
		if err := writeReference(o.writeRef, name, want); err != nil {
			return err
		}
	}

	rep := report{Correct: failed == 0 && len(plain) > 0, Attempted: len(logs), Failed: failed}
	if traced {
		rep.Metrics = perLayer(tr, plain, probed, traces, &goD, su, name)
		rep.Metrics["wrong_results"] = metric{frac(float64(failed), float64(len(logs))), "ratio"}
	} else {
		rep.Metrics = endToEnd(plain, su)
	}

	if err := writeJSON(filepath.Join(dir, "units.json"), logs); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	if err := tr.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "metrics.json"), append(line, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d units (%d traced), %d failed, wall_s median of %d; outputs in %s\n",
		name, seed, len(logs), len(probed), failed, len(plain), dir)
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// setupCosts are the host costs of each set-up of a run.
type setupCosts struct {
	wall, cpu, parse []float64 // seconds
}

// endToEnd computes the untraced metrics. Time is gated as process CPU
// time, which host contention moves far less than wall time; wall time
// is reported by the traced run.
func endToEnd(plain []unitResult, su setupCosts) map[string]metric {
	var cpus, allocs, bytes []float64
	for _, r := range plain {
		cpus = append(cpus, r.cpu)
		allocs = append(allocs, float64(r.allocs))
		bytes = append(bytes, float64(r.bytes))
	}
	return map[string]metric{
		"setup_s":     {median(su.cpu), "s"},
		"cpu_s":       {median(cpus), "s"},
		"allocs_k":    {median(allocs) / 1e3, "k"},
		"alloc_mb":    {median(bytes) / 1e6, "MB"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// perLayer computes the traced-run metrics. Counts come from the probed
// units and repeat exactly; host times are medians; the Go runtime
// numbers cover the untraced units of the same run.
func perLayer(tr *tracer, plain, probed []unitResult, traces []*unitTrace, goD *goDelta, su setupCosts, name string) map[string]metric {
	var runWalls, builds, collects, installs []float64
	perUnit := func(f func(u *unitTrace) float64) float64 {
		var xs []float64
		for _, u := range traces {
			xs = append(xs, f(u))
		}
		return median(xs)
	}
	var calls, callNs int64
	for _, u := range traces {
		for _, r := range u.runs {
			runWalls = append(runWalls, r.wall)
			builds = append(builds, r.build)
			collects = append(collects, r.collect)
			installs = append(installs, r.install)
		}
		for _, f := range u.fabrics {
			calls += f.sends + f.accepts + f.controls
			callNs += f.callNs
		}
	}
	fabric := func(u *unitTrace, f func(*fabricProbe) int64) float64 {
		var n int64
		for _, p := range u.fabrics {
			n += f(p)
		}
		return float64(n)
	}
	runs := func(u *unitTrace, f func(runRecord) float64) float64 {
		var n float64
		for _, r := range u.runs {
			n += f(r)
		}
		return n
	}
	tickNs := func(name string) float64 {
		var ticks, ns int64
		for _, u := range traces {
			if s := u.sinks[name]; s != nil {
				ticks += s.ticks
				ns += s.tickNs
			}
		}
		return frac(float64(ns), float64(ticks))
	}
	var plainWalls, probedWalls, ratios []float64
	for _, r := range plain {
		plainWalls = append(plainWalls, r.wall)
		if r.baseWall > 0 {
			ratios = append(ratios, r.baseWall/r.wall)
		}
	}
	for _, r := range probed {
		probedWalls = append(probedWalls, r.wall)
	}
	paperErr := 0.0
	if len(plain) > 0 {
		paperErr = plain[0].paperErr
	}
	parse := 0.0
	if name == "paper-matrix" {
		parse = median(su.parse)
	}
	m := map[string]metric{
		"cluster.runonce_s.p50": {quantile(runWalls, 0.5), "s"},
		"cluster.runonce_s.p90": {quantile(runWalls, 0.9), "s"},
		"cluster.build_s":       {median(builds), "s"},
		"cluster.collect_s":     {median(collects), "s"},
		"exec.busy_frac":        {perUnit(func(u *unitTrace) float64 { return u.execBusy }), "ratio"},
		"exec.tail_s":           {perUnit(func(u *unitTrace) float64 { return u.execTail }), "s"},
		"netsim.sends":          {perUnit(func(u *unitTrace) float64 { return fabric(u, func(p *fabricProbe) int64 { return p.sends }) }), "count"},
		"netsim.accepts":        {perUnit(func(u *unitTrace) float64 { return fabric(u, func(p *fabricProbe) int64 { return p.accepts }) }), "count"},
		"netsim.controls":       {perUnit(func(u *unitTrace) float64 { return fabric(u, func(p *fabricProbe) int64 { return p.controls }) }), "count"},
		"netsim.bytes":          {perUnit(func(u *unitTrace) float64 { return fabric(u, func(p *fabricProbe) int64 { return p.bytes }) }), "B"},
		"netsim.call_ns":        {frac(float64(callNs), float64(calls)), "ns"},
		"netsim.queue_sim_s": {perUnit(func(u *unitTrace) float64 {
			return fabric(u, func(p *fabricProbe) int64 { return int64(p.queue) }) / 1e9
		}), "s"},
		"mpi.rendezvous_frac": {perUnit(func(u *unitTrace) float64 {
			return frac(fabric(u, func(p *fabricProbe) int64 { return p.controls })/2, fabric(u, func(p *fabricProbe) int64 { return p.sends }))
		}), "ratio"},
		"sim.live_procs_peak":       {float64(tr.peak.Load()), "count"},
		"go.gc_cpu_frac":            {frac(goD.gcCPU, goD.totalCPU), "ratio"},
		"go.gc_cycles":              {frac(float64(goD.gcCycles), float64(len(plain))), "count"},
		"go.cpu_idle_frac":          {frac(goD.idleCPU, goD.totalCPU), "ratio"},
		"go.sched_lat_p90_us":       {goD.schedP90() * 1e6, "us"},
		"trace.ticks":               {perUnit(func(u *unitTrace) float64 { return sinkCount(u, func(s *sinkProbe) int64 { return s.ticks }) }), "count"},
		"trace.samples":             {perUnit(func(u *unitTrace) float64 { return sinkCount(u, func(s *sinkProbe) int64 { return s.samples }) }), "count"},
		"trace.tick_ns.stats":       {tickNs("stats"), "ns"},
		"trace.tick_ns.writer":      {tickNs("writer"), "ns"},
		"trace.tick_ns.downsampler": {tickNs("downsampler"), "ns"},
		"trace.archive_bytes_per_sample": {perUnit(func(u *unitTrace) float64 {
			return frac(float64(u.archiveBytes), sinkCount(u, func(s *sinkProbe) int64 { return s.samples }))
		}), "B/sample"},
		"trace.replay_ns_per_sample": {perUnit(func(u *unitTrace) float64 { return frac(float64(u.replayNs), float64(u.replayRows)) }), "ns/sample"},
		"dvs.install_s":              {median(installs), "s"},
		"dvs.region_calls": {perUnit(func(u *unitTrace) float64 {
			return runs(u, func(r runRecord) float64 { return float64(r.regionCalls) })
		}), "count"},
		"powerpack.events": {perUnit(func(u *unitTrace) float64 { return runs(u, func(r runRecord) float64 { return float64(r.events) }) }), "count"},
		"machine.transitions": {perUnit(func(u *unitTrace) float64 {
			return runs(u, func(r runRecord) float64 { return float64(r.transitions) })
		}), "count"},
		"machine.busy_frac": {perUnit(func(u *unitTrace) float64 {
			busy := runs(u, func(r runRecord) float64 { return float64(r.busy) })
			return frac(busy, busy+runs(u, func(r runRecord) float64 { return float64(r.idle) }))
		}), "ratio"},
		"campaign.parse_s":          {parse, "s"},
		"wall_s":                    {median(plainWalls), "s"},
		"setup_wall_s":              {median(su.wall), "s"},
		"bench.trace_overhead_frac": {frac(median(probedWalls), median(plainWalls)) - 1, "ratio"},
		"bench.wall_samples":        {float64(len(plain)), "count"},
		"shard_speedup":             {median(ratios), "ratio"},
		"paper_err_pct":             {paperErr, "%"},
	}
	return m
}

// sinkCount reads a counter of the "stats" sink probe, which sees every
// tick the recorder emits.
func sinkCount(u *unitTrace, f func(*sinkProbe) int64) float64 {
	if s := u.sinks["stats"]; s != nil {
		return float64(f(s))
	}
	return 0
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeReference records digest as name's reference in path, keeping
// the other workloads' entries.
func writeReference(path, name, digest string) error {
	refs := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &refs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	refs[name] = digest
	return writeJSON(path, refs)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
