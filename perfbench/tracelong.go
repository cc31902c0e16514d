package main

// trace-long: one cpuspeed EP run on 16 nodes with a 1 ms power trace
// streamed into trace.Stats, an in-memory trace.Writer archive and a
// trace.Downsampler; the archive is then replayed through trace.Reader
// into a fresh Stats, which must equal the live one.

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/dvs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

type traceLong struct {
	in             traceInput
	w              workloads.Workload
	runner, probed *cluster.Runner
	cur            *unitTrace

	// The sinks of the run in flight, built by the TraceSinks factory.
	archive bytes.Buffer
	stats   *trace.Stats
	ds      *trace.Downsampler
}

func (t *traceLong) setup(input []byte) (float64, error) {
	if err := decodeStrict(input, &t.in); err != nil {
		return 0, err
	}
	in := t.in
	if len(in.Class) != 1 || !strings.Contains("ABC", in.Class) || in.Procs < 1 || in.IntervalUS <= 0 ||
		in.DownsampleNode < 0 || in.DownsampleNode >= in.Procs || in.MaxPoints < 2 {
		return 0, fmt.Errorf("trace-long: bad input %+v", in)
	}
	t.w = workloads.NewEP(in.Class[0], in.Procs)
	cfg := cluster.DefaultConfig()
	cfg.TraceInterval = sim.Duration(in.IntervalUS) * sim.Microsecond
	cfg.TraceSinks = t.sinks
	build := func(settleS int, probed bool) (*cluster.Runner, error) {
		c := cfg
		c.Settle = sim.Duration(settleS) * sim.Second
		if probed {
			c.Fabric = fabricFactory(c.Net, func() *unitTrace { return t.cur })
		}
		return cluster.NewRunner(c)
	}
	var err error
	if t.runner, err = build(in.SettleS, false); err != nil {
		return 0, err
	}
	if t.probed, err = build(in.SettleS, true); err != nil {
		return 0, err
	}
	warm, err := build(in.WarmupSettleS, false)
	if err != nil {
		return 0, err
	}
	if _, err := warm.RunOnce(t.w, dvs.NewCpuspeed(), 0, in.Jitter); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return 0, nil
}

// sinks is the TraceSinks factory: fresh Stats and Downsampler and the
// reused archive buffer, each wrapped in a probe when the run is traced.
func (t *traceLong) sinks(cluster.RunInfo) []trace.Sink {
	t.archive.Reset()
	t.stats = trace.NewStats()
	t.ds = trace.NewDownsampler(t.in.DownsampleNode, t.in.MaxPoints)
	out := []trace.Sink{t.stats, trace.NewWriter(&t.archive), t.ds}
	if u := t.cur; u != nil {
		for i, name := range []string{"stats", "writer", "downsampler"} {
			out[i] = u.sink(name, out[i])
		}
	}
	return out
}

func (t *traceLong) unit(ut *unitTrace) (unitResult, error) {
	t.cur = ut
	var res *cluster.Result
	replayed := trace.NewStats()
	var replayNs int64
	c, err := measure(func() (err error) {
		if ut == nil {
			res, err = t.runner.RunOnce(t.w, dvs.NewCpuspeed(), 0, t.in.Jitter)
		} else {
			res, err = ut.runOnce(ut.unitID, t.probed, t.w, dvs.NewCpuspeed(), 0, t.in.Jitter)
		}
		if err != nil {
			return err
		}
		t0 := time.Now()
		rd, err := trace.NewReader(bytes.NewReader(t.archive.Bytes()))
		if err != nil {
			return err
		}
		err = rd.Replay(replayed)
		replayNs = int64(time.Since(t0))
		return err
	})
	if err != nil {
		return unitResult{}, err
	}
	if err := checkResult(res); err != nil {
		return unitResult{}, err
	}
	live, err := statsText(t.stats)
	if err != nil {
		return unitResult{}, err
	}
	for _, c := range []struct {
		what string
		st   *trace.Stats
	}{{"replayed", replayed}, {"built-in", res.Trace}} {
		s, err := statsText(c.st)
		if err != nil {
			return unitResult{}, err
		}
		if err := sameDigest(c.what+" vs live trace stats", s, live); err != nil {
			return unitResult{}, err
		}
	}
	if ut != nil {
		ut.archiveBytes = int64(t.archive.Len())
		ut.replayNs = replayNs
		ut.replayRows = int64(replayed.Ticks()) * int64(t.in.Procs)
	}
	d := newDigest()
	if err := d.result(res); err != nil {
		return unitResult{}, err
	}
	xs, ys := t.ds.Series()
	if err := d.json([]any{live, xs, ys}); err != nil {
		return unitResult{}, err
	}
	d.h.Write(t.archive.Bytes())
	return unitResult{cost: c, digest: d.sum()}, nil
}
