package main

// paper-matrix: the paper's evaluation as one campaign. Untraced units
// call campaign.Run; traced units re-drive the same cross product
// through exec.Map and cluster.Runner.RunOnce so each layer boundary
// can be observed, and must reproduce campaign.Run's output exactly.

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/dvs"
	"repro/internal/exec"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workloads"
)

type paperMatrix struct {
	spec   *campaign.Spec
	cfg    cluster.Config
	cells  []paperCell
	traced *cluster.Runner // cfg plus a probed fabric
	cur    *unitTrace
}

// paperCell is one entry of the cross product, in campaign.Run's order.
type paperCell struct {
	w     workloads.Workload
	s     dvs.Strategy
	idx   int
	label string
}

func (p *paperMatrix) setup(input []byte) (float64, error) {
	t0 := time.Now()
	spec, err := campaign.Parse(bytes.NewReader(input))
	parseS := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	p.spec = spec
	if p.cfg, err = redriveConfig(spec); err != nil {
		return 0, err
	}
	if p.cells, err = redriveCells(spec, p.cfg); err != nil {
		return 0, err
	}
	tcfg := p.cfg
	tcfg.Fabric = fabricFactory(tcfg.Net, func() *unitTrace { return p.cur })
	if p.traced, err = cluster.NewRunner(tcfg); err != nil {
		return 0, err
	}
	// Warm-up: every workload and strategy once, at one point and one
	// repetition.
	warm := *spec
	warm.Reps = 1
	warm.PointsMHz = []int{1400}
	if _, err := campaign.Run(&warm, nil); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return parseS, nil
}

// redriveConfig mirrors the runner configuration campaign.Run derives
// from a spec. It supports the options the generator emits.
func redriveConfig(spec *campaign.Spec) (cluster.Config, error) {
	if spec.Net != "" || spec.Shards > 1 || spec.TraceIntervalMS != 0 {
		return cluster.Config{}, errors.New("paper-matrix: re-drive supports the default net, one shard and no trace")
	}
	cfg := cluster.DefaultConfig()
	if spec.Reps > 0 {
		cfg.Reps = spec.Reps
	}
	if spec.Settle != "" {
		d, err := time.ParseDuration(spec.Settle)
		if err != nil {
			return cluster.Config{}, err
		}
		cfg.Settle = sim.Duration(d.Nanoseconds())
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	cfg.Parallelism = spec.Parallelism
	cfg.UseTrueEnergy = spec.ExactEnergy
	return cfg, cfg.Validate()
}

// redriveCells expands the spec into campaign.Run's cell order.
func redriveCells(spec *campaign.Spec, cfg cluster.Config) ([]paperCell, error) {
	if len(spec.PointsMHz) > 0 {
		return nil, errors.New("paper-matrix: re-drive sweeps the whole table")
	}
	table := cfg.Machine.Table
	points := make([]int, table.Len())
	for i := range points {
		points[i] = i
	}
	var cells []paperCell
	for _, ws := range spec.Workloads {
		w, err := buildWorkload(ws)
		if err != nil {
			return nil, err
		}
		for _, ss := range spec.Strategies {
			s, err := buildStrategy(ss)
			if err != nil {
				return nil, err
			}
			if s.Name() == "cpuspeed" {
				cells = append(cells, paperCell{w: w, s: s, idx: 0, label: "auto"})
				continue
			}
			for _, idx := range points {
				cells = append(cells, paperCell{w: w, s: s, idx: idx, label: table.At(idx).Freq.String()})
			}
		}
	}
	return cells, nil
}

// buildWorkload constructs the workload kinds the generator emits; the
// generator always sets Iters, so no defaults are needed.
func buildWorkload(ws campaign.WorkloadSpec) (workloads.Workload, error) {
	if ws.Iters <= 0 {
		return nil, fmt.Errorf("paper-matrix: %s needs explicit iters", ws.Kind)
	}
	switch ws.Kind {
	case "swim":
		return workloads.NewSwim(ws.Iters), nil
	case "mgrid":
		return workloads.NewMgrid(ws.Iters), nil
	case "ft":
		if len(ws.Class) != 1 || ws.Procs <= 0 {
			return nil, fmt.Errorf("paper-matrix: ft needs a class and procs")
		}
		ft := workloads.NewFT(ws.Class[0], ws.Procs)
		ft.IterOverride = ws.Iters
		return ft, nil
	case "transpose":
		return workloads.NewTranspose(ws.Iters), nil
	case "membench":
		return workloads.NewMemBench(ws.Iters), nil
	case "cachebench":
		return workloads.NewCacheBench(ws.Iters), nil
	case "regbench":
		return workloads.NewRegBench(ws.Iters), nil
	case "comm256k":
		return workloads.NewCommBench256K(ws.Iters), nil
	case "comm4k":
		return workloads.NewCommBench4K(ws.Iters), nil
	}
	return nil, fmt.Errorf("paper-matrix: unsupported workload kind %q", ws.Kind)
}

func buildStrategy(ss campaign.StrategySpec) (dvs.Strategy, error) {
	switch ss.Kind {
	case "static":
		return dvs.Static{}, nil
	case "dynamic":
		return dvs.NewDynamic(ss.Regions...), nil
	case "cpuspeed":
		d := dvs.NewCpuspeed()
		if ss.IntervalMS > 0 {
			d.Interval = sim.Duration(ss.IntervalMS) * sim.Millisecond
		}
		return d, nil
	}
	return nil, fmt.Errorf("paper-matrix: unsupported strategy kind %q", ss.Kind)
}

func (p *paperMatrix) unit(ut *unitTrace) (unitResult, error) {
	var rows []campaign.Result
	run := func() (err error) {
		rows, err = campaign.Run(p.spec, nil)
		return err
	}
	if ut != nil {
		run = func() (err error) {
			rows, err = p.redrive(ut)
			return err
		}
	}
	c, err := measure(run)
	if err != nil {
		return unitResult{}, err
	}
	if err := p.check(rows); err != nil {
		return unitResult{}, err
	}
	d := newDigest()
	if err := d.json(rows); err != nil {
		return unitResult{}, err
	}
	pe, err := paperErrPct(rows)
	if err != nil {
		return unitResult{}, err
	}
	return unitResult{cost: c, digest: d.sum(), paperErr: pe}, nil
}

// check verifies a result for any seed: one row per cell in cell order,
// with finite positive energy and delay and a sane kept count.
func (p *paperMatrix) check(rows []campaign.Result) error {
	if len(rows) != len(p.cells) {
		return fmt.Errorf("paper-matrix: %d rows, want %d", len(rows), len(p.cells))
	}
	for i, r := range rows {
		c := p.cells[i]
		if r.Workload != c.w.Name() || r.Strategy != c.s.Name() || r.Point != c.label {
			return fmt.Errorf("paper-matrix row %d is %s/%s@%s, want %s/%s@%s",
				i, r.Workload, r.Strategy, r.Point, c.w.Name(), c.s.Name(), c.label)
		}
		if !(r.EnergyJ > 0) || !(r.DelayS > 0) || r.EnergyJ > 1e12 || r.DelayS > 1e9 || r.Reps < 1 || r.Reps > p.cfg.Reps {
			return fmt.Errorf("paper-matrix row %d (%s/%s@%s): %v J, %v s, kept %d",
				i, r.Workload, r.Strategy, r.Point, r.EnergyJ, r.DelayS, r.Reps)
		}
	}
	return nil
}

// redrive reproduces campaign.Run cell by cell with every RunOnce
// probed, and records the worker pool's occupancy.
func (p *paperMatrix) redrive(ut *unitTrace) ([]campaign.Result, error) {
	p.cur = ut
	cfg := p.cfg
	ends := make([]int64, len(p.cells))
	durs := make([]int64, len(p.cells))
	mapStart := ut.tr.now()
	rows, err := exec.Map(cfg.Parallelism, len(p.cells), func(i int) (campaign.Result, error) {
		c := p.cells[i]
		id, start := ut.tr.begin()
		agg, err := p.aggregate(ut, id, c)
		durs[i] = ut.tr.end(id, ut.unitID, "campaign.cell", start)
		ends[i] = start + durs[i]
		if err != nil {
			return campaign.Result{}, fmt.Errorf("%s/%s: %w", c.w.Name(), c.s.Name(), err)
		}
		energy := agg.EnergyACPI
		if cfg.UseTrueEnergy {
			energy = agg.EnergyTrue
		}
		return campaign.Result{
			Campaign: p.spec.Name,
			Workload: c.w.Name(),
			Strategy: c.s.Name(),
			Point:    c.label,
			EnergyJ:  float64(energy),
			DelayS:   agg.Delay.Seconds(),
			Reps:     agg.Kept,
		}, nil
	})
	mapWall := ut.tr.now() - mapStart
	if err != nil {
		return nil, err
	}
	var busy int64
	for _, d := range durs {
		busy += d
	}
	width := exec.Width(cfg.Parallelism)
	if width > len(p.cells) {
		width = len(p.cells)
	}
	sort.Slice(ends, func(a, b int) bool { return ends[a] < ends[b] })
	ut.execBusy = frac(float64(busy), float64(width)*float64(mapWall))
	if n := len(ends); n >= 2 {
		ut.execTail = secs(ends[n-1] - ends[n-2])
	}
	return rows, nil
}

// aggregate mirrors cluster.Runner.Run: the repetitions fan out, are
// filtered for outliers on the ACPI estimate, and are averaged.
func (p *paperMatrix) aggregate(ut *unitTrace, parent int64, c paperCell) (*cluster.Aggregate, error) {
	cfg := p.cfg
	reps := cfg.Reps
	if reps < 1 {
		reps = 1
	}
	runs, err := exec.Map(cfg.Parallelism, reps, func(rep int) (*cluster.Result, error) {
		res, err := ut.runOnce(parent, p.traced, c.w, c.s, c.idx, cfg.Seed+int64(rep)*7919)
		if err != nil {
			return nil, err
		}
		return res, checkResult(res)
	})
	if err != nil {
		return nil, err
	}
	agg := &cluster.Aggregate{Runs: runs}
	acpis := make([]float64, len(runs))
	for i, res := range runs {
		acpis[i] = float64(res.EnergyACPI)
	}
	keptSet := map[float64]int{}
	for _, v := range stats.RejectOutliers(acpis, cfg.OutlierK) {
		keptSet[v]++
	}
	var dSum sim.Duration
	var eTrue, eACPI, eBay power.Joules
	n := 0
	for _, res := range runs {
		if keptSet[float64(res.EnergyACPI)] == 0 {
			continue
		}
		keptSet[float64(res.EnergyACPI)]--
		n++
		dSum += res.Delay
		eTrue += res.EnergyTrue
		eACPI += res.EnergyACPI
		eBay += res.EnergyBaytech
	}
	if n == 0 {
		return nil, errors.New("all repetitions rejected")
	}
	agg.Kept = n
	agg.Delay = dSum / sim.Duration(n)
	agg.EnergyTrue = eTrue / power.Joules(n)
	agg.EnergyACPI = eACPI / power.Joules(n)
	agg.EnergyBaytech = eBay / power.Joules(n)
	return agg, nil
}
