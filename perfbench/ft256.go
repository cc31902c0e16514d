package main

// ft256-sharded: one 256-rank FT run through cluster.Runner.RunOnce at
// two shards, paired with the same input at one shard. The pair must be
// byte-identical; their wall ratio is the shard speedup.

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dvs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

type ft256 struct {
	in       ftInput
	w        workloads.Workload
	one, two *cluster.Runner
	probed   *cluster.Runner // one shard with a probed fabric
	cur      *unitTrace
	units    int
}

func (f *ft256) setup(input []byte) (float64, error) {
	if err := decodeStrict(input, &f.in); err != nil {
		return 0, err
	}
	in := f.in
	if len(in.Class) != 1 || !strings.Contains("ABC", in.Class) || in.Procs < 2 || in.Iters < 1 || in.Shards < 2 || in.WarmupNP < 2 {
		return 0, fmt.Errorf("ft256-sharded: bad input %+v", in)
	}
	cfg := cluster.DefaultConfig()
	cfg.Settle = sim.Duration(in.SettleS) * sim.Second
	cfg.Reps = 1
	cfg.UseTrueEnergy = true
	var err error
	if f.one, err = cluster.NewRunner(cfg); err != nil {
		return 0, err
	}
	pcfg := cfg
	pcfg.Fabric = fabricFactory(cfg.Net, func() *unitTrace { return f.cur })
	if f.probed, err = cluster.NewRunner(pcfg); err != nil {
		return 0, err
	}
	cfg.Shards = in.Shards
	if f.two, err = cluster.NewRunner(cfg); err != nil {
		return 0, err
	}
	f.w = newFT(in.Class[0], in.Procs, in.Iters)
	warm := newFT(in.Class[0], in.WarmupNP, in.Iters)
	for _, r := range []*cluster.Runner{f.one, f.two} {
		if _, err := r.RunOnce(warm, dvs.Static{}, in.BaseIdx, in.Jitter); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return 0, nil
}

func newFT(class byte, procs, iters int) workloads.Workload {
	ft := workloads.NewFT(class, procs)
	ft.IterOverride = iters
	return ft
}

func (f *ft256) unit(ut *unitTrace) (unitResult, error) {
	in := f.in
	var res [2]*cluster.Result
	var costs [2]cost
	runAt := func(k int) (err error) {
		costs[k], err = measure(func() (err error) {
			if ut == nil {
				res[k], err = []*cluster.Runner{f.one, f.two}[k].RunOnce(f.w, dvs.Static{}, in.BaseIdx, in.Jitter)
				return err
			}
			// Fabric decorators are single-shard only, so the 2-shard
			// pass is observed through its strategy and ranks alone.
			r := f.two
			if k == 0 {
				f.cur, r = ut, f.probed
			}
			res[k], err = ut.runOnce(ut.unitID, r, f.w, dvs.Static{}, in.BaseIdx, in.Jitter)
			return err
		})
		return err
	}
	// Alternate which shard count runs first so neither always inherits
	// the other's heap.
	order := [2]int{0, 1}
	if f.units%2 == 1 {
		order = [2]int{1, 0}
	}
	f.units++
	for _, k := range order {
		if err := runAt(k); err != nil {
			return unitResult{}, err
		}
	}
	var sums [2]string
	for k, r := range res {
		if err := checkResult(r); err != nil {
			return unitResult{}, err
		}
		d := newDigest()
		if err := d.result(r); err != nil {
			return unitResult{}, err
		}
		sums[k] = d.sum()
	}
	if err := sameDigest("2-shard vs 1-shard", sums[1], sums[0]); err != nil {
		return unitResult{}, err
	}
	return unitResult{cost: costs[1], digest: sums[1], baseWall: costs[0].wall}, nil
}
