package machine

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
	"repro/internal/power"
	"repro/internal/sim"
)

// oneShard returns a fresh one-shard group and its engine, closed when
// the test ends.
func oneShard(t *testing.T) (*sim.Group, *sim.Engine) {
	g := sim.NewGroup(1, sim.Second)
	t.Cleanup(g.Close)
	return g, g.Engine(0)
}

func newTestNode(t *testing.T) (*sim.Group, *sim.Engine, *Node) {
	t.Helper()
	g, e := oneShard(t)
	return g, e, NewNode(e, 0, DefaultParams())
}

func run(t *testing.T, g *sim.Group) sim.Time {
	t.Helper()
	end, err := g.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

func TestStateStrings(t *testing.T) {
	if len(States()) != int(numStates) {
		t.Fatal("States() incomplete")
	}
	for _, s := range States() {
		if s.String() == "" {
			t.Errorf("state %d has empty name", int(s))
		}
	}
	if State(42).String() != "state(42)" {
		t.Error("unknown state formatting")
	}
}

func TestBusyClassification(t *testing.T) {
	busy := map[State]bool{
		Idle: false, Compute: true, MemoryStall: true, Copy: true,
		Spin: true, Blocked: false, Switching: true,
	}
	for s, want := range busy {
		if s.countsBusy() != want {
			t.Errorf("%v countsBusy = %v want %v", s, s.countsBusy(), want)
		}
	}
}

func TestComputeDurationScalesWithFrequency(t *testing.T) {
	par := DefaultParams()
	var durations []sim.Duration
	for i := 0; i < par.Table.Len(); i++ {
		g, e := oneShard(t)
		n := NewNode(e, 0, par)
		i := i
		e.Spawn("w", func(p *sim.Proc) {
			n.SetOperatingPointIndex(p, i)
			start := p.Now()
			n.Compute(p, 1.4e9) // one second of work at full speed
			durations = append(durations, p.Now().Sub(start))
		})
		run(t, g)
	}
	// Slower clock always takes longer.
	for i := 1; i < len(durations); i++ {
		if durations[i] <= durations[i-1] {
			t.Fatalf("durations not increasing: %v", durations)
		}
	}
	// The 600 MHz point is close to (and slightly above) the pure 1/f
	// ratio of 2.333x — the paper's 134% slowdown.
	ratio := float64(durations[4]) / float64(durations[0])
	if ratio < 2.333 || ratio > 2.45 {
		t.Fatalf("600MHz compute slowdown %.4f outside [2.333, 2.45]", ratio)
	}
}

func TestMemoryRoundsWeaklyFrequencyDependent(t *testing.T) {
	par := DefaultParams()
	elapsed := func(opIdx int) sim.Duration {
		g, e := oneShard(t)
		n := NewNode(e, 0, par)
		var d sim.Duration
		e.Spawn("w", func(p *sim.Proc) {
			n.SetOperatingPointIndex(p, opIdx)
			start := p.Now()
			n.MemoryRounds(p, 1_000_000)
			d = p.Now().Sub(start)
		})
		run(t, g)
		return d
	}
	fast, slow := elapsed(0), elapsed(par.Table.Len()-1)
	ratio := float64(slow) / float64(fast)
	// Paper Fig. 6: only ~5.4% slower at 600 MHz.
	if ratio < 1.02 || ratio > 1.10 {
		t.Fatalf("memory slowdown %.4f outside [1.02, 1.10]", ratio)
	}
}

func TestEnergyIntegration(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		n.Compute(p, 1.4e9) // ~1s at 1.4GHz
	})
	end := run(t, g)
	total := n.EnergyAt(end)
	// At full tilt the node draws CPU (22 + leak ~1.1) + base ~8.6 W;
	// for ~1s expect ~32 J.
	if total < 25 || total > 40 {
		t.Fatalf("compute-second energy %.2f J implausible", float64(total))
	}
	// Components sum to the total.
	var sum power.Joules
	for _, c := range power.Components() {
		sum += n.ComponentEnergyAt(c, end)
	}
	if math.Abs(float64(sum-total)) > 1e-9 {
		t.Fatalf("component sum %v != total %v", sum, total)
	}
	// CPU dominates during compute.
	if n.ComponentEnergyAt(power.CPU, end) < total/2 {
		t.Fatal("CPU should dominate compute energy")
	}
}

func TestIdleDrawsLess(t *testing.T) {
	par := DefaultParams()
	energy := func(body func(p *sim.Proc, n *Node)) power.Joules {
		g, e := oneShard(t)
		n := NewNode(e, 0, par)
		e.Spawn("w", func(p *sim.Proc) { body(p, n) })
		end := run(t, g)
		return n.EnergyAt(end)
	}
	busy := energy(func(p *sim.Proc, n *Node) { n.Compute(p, 1.4e9) })
	idle := energy(func(p *sim.Proc, n *Node) { n.IdleFor(p, sim.Second) })
	if idle >= busy/2 {
		t.Fatalf("idle energy %v not well below busy %v", idle, busy)
	}
	if idle <= 0 {
		t.Fatal("idle energy must be positive (base draw)")
	}
}

func TestMemoryStateActivatesDRAMPower(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		n.SetState(MemoryStall)
		before := n.Power()
		p.Sleep(sim.Millisecond)
		n.SetState(Idle)
		after := n.Power()
		if before <= after {
			t.Errorf("memory-stall power %v not above idle %v", before, after)
		}
	})
	run(t, g)
}

func TestNICActivePower(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		idleP := n.Power()
		n.SetNICActive(true)
		activeP := n.Power()
		want := float64(DefaultParams().NICActive)
		if math.Abs(float64(activeP-idleP)-want) > 1e-9 {
			t.Errorf("NIC delta = %v want %v", activeP-idleP, want)
		}
		n.SetNICActive(true) // idempotent
		n.SetNICActive(false)
		if n.Power() != idleP {
			t.Error("NIC power not restored")
		}
	})
	run(t, g)
}

func TestUtilizationAccounting(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		n.SetState(Compute)
		p.Sleep(300 * sim.Millisecond)
		n.SetState(Blocked)
		p.Sleep(500 * sim.Millisecond)
		n.SetState(Spin)
		p.Sleep(200 * sim.Millisecond)
		n.SetState(Idle)
	})
	end := run(t, g)
	busy, idle := n.Utilization()
	if busy != 500*sim.Millisecond {
		t.Fatalf("busy = %v", busy)
	}
	if idle != 500*sim.Millisecond {
		t.Fatalf("idle = %v", idle)
	}
	if busy+idle != end.Sub(0) {
		t.Fatalf("busy+idle %v != elapsed %v", busy+idle, end)
	}
	if n.StateTime(Compute) != 300*sim.Millisecond || n.StateTime(Spin) != 200*sim.Millisecond {
		t.Fatalf("state times: compute=%v spin=%v", n.StateTime(Compute), n.StateTime(Spin))
	}
}

func TestUtilizationIncludesOpenInterval(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		n.SetState(Compute)
		p.Sleep(100 * sim.Millisecond)
		// Query mid-state: the open interval counts.
		busy, _ := n.Utilization()
		if busy != 100*sim.Millisecond {
			t.Errorf("busy mid-state = %v", busy)
		}
		if st := n.StateTime(Compute); st != 100*sim.Millisecond {
			t.Errorf("StateTime mid-state = %v", st)
		}
		n.SetState(Idle)
	})
	run(t, g)
}

func TestDVSTransitionCostsAndLog(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		n.SetOperatingPointIndex(p, 4)
		if d := p.Now().Sub(start); d != DefaultParams().Transition.Latency {
			t.Errorf("transition stall = %v", d)
		}
		if n.OperatingPoint().Freq != 600*dvfs.MHz {
			t.Errorf("op = %v", n.OperatingPoint())
		}
		n.SetOperatingPointIndex(p, 4) // no-op: same point
		n.SetFrequency(p, 1000*dvfs.MHz)
	})
	run(t, g)
	if n.Transitions() != 2 {
		t.Fatalf("transitions = %d", n.Transitions())
	}
	log := n.FreqLog()
	if len(log) != 2 || log[0].To.Freq != 600*dvfs.MHz || log[1].To.Freq != 1000*dvfs.MHz {
		t.Fatalf("freq log = %+v", log)
	}
	if log[0].From.Freq != 1400*dvfs.MHz {
		t.Fatalf("log from = %v", log[0].From)
	}
}

func TestAsyncTransition(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		n.SetState(Spin)
		p.Sleep(sim.Second)
		n.SetState(Idle)
	})
	e.Schedule(sim.Time(200*sim.Millisecond), func() {
		n.SetOperatingPointIndexAsync(4)
	})
	run(t, g)
	if n.OPIndex() != 4 {
		t.Fatal("async transition did not apply")
	}
	// The spin state must have been restored after the switch stall so
	// that nearly the whole second books as spin.
	if st := n.StateTime(Spin); st < 990*sim.Millisecond {
		t.Fatalf("spin time %v; switching stall mishandled", st)
	}
	if st := n.StateTime(Switching); st != DefaultParams().Transition.Latency {
		t.Fatalf("switching time %v", st)
	}
}

func TestAsyncTransitionDoesNotStompNewState(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Schedule(sim.Time(0), func() { n.SetOperatingPointIndexAsync(4) })
	// Workload changes state during the 10µs transition window.
	e.Schedule(sim.Time(5*sim.Microsecond), func() { n.SetState(Compute) })
	e.Schedule(sim.Time(sim.Second), func() { n.SetState(Idle) })
	run(t, g)
	// The delayed restore must not overwrite Compute back to Switching's
	// saved state.
	if got := n.StateTime(Compute); got != sim.Duration(sim.Second)-5*sim.Microsecond {
		t.Fatalf("compute time %v", got)
	}
}

func TestOutOfRangeOperatingPointErrors(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		if err := n.SetOperatingPointIndex(p, 99); err == nil {
			t.Error("expected error for index 99")
		}
		if err := n.SetOperatingPointIndexAsync(-1); err == nil {
			t.Error("expected error for index -1")
		}
		// A failed switch must not have moved the operating point or
		// logged a transition.
		if n.Transitions() != 0 {
			t.Errorf("transitions = %d after failed switches", n.Transitions())
		}
	})
	run(t, g)
}

func TestLowerFrequencyLowersPower(t *testing.T) {
	par := DefaultParams()
	for _, st := range []State{Compute, MemoryStall, Spin, Blocked, Idle} {
		var prev power.Watts
		for i := 0; i < par.Table.Len(); i++ {
			g, e := oneShard(t)
			n := NewNode(e, 0, par)
			var got power.Watts
			i := i
			e.Spawn("w", func(p *sim.Proc) {
				n.SetOperatingPointIndex(p, i)
				n.SetState(st)
				got = n.Power()
				n.SetState(Idle)
			})
			run(t, g)
			if i > 0 && got >= prev {
				t.Errorf("state %v: power %v at point %d not below %v", st, got, i, prev)
			}
			prev = got
		}
	}
}

// Property: energy through any prefix is nondecreasing and the busy/idle
// split always covers elapsed time exactly.
func TestAccountingInvariantProperty(t *testing.T) {
	par := DefaultParams()
	f := func(ops []uint8) bool {
		if len(ops) > 30 {
			ops = ops[:30]
		}
		g, e := oneShard(t)
		n := NewNode(e, 0, par)
		ok := true
		e.Spawn("w", func(p *sim.Proc) {
			var lastE power.Joules
			for _, op := range ops {
				switch op % 5 {
				case 0:
					n.Compute(p, float64(op)*1e5+1)
				case 1:
					n.MemoryRounds(p, int64(op)*100+1)
				case 2:
					n.L2Rounds(p, int64(op)*1000+1)
				case 3:
					n.IdleFor(p, sim.Duration(op)*sim.Microsecond)
				case 4:
					n.SetOperatingPointIndex(p, int(op)%par.Table.Len())
				}
				eNow := n.EnergyAt(p.Now())
				if eNow < lastE {
					ok = false
				}
				lastE = eNow
				busy, idle := n.Utilization()
				if busy+idle != p.Now().Sub(0) {
					ok = false
				}
			}
		})
		if _, err := g.Run(0); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAccessors(t *testing.T) {
	_, e, n := newTestNode(t)
	if n.ID() != 0 || n.Engine() != e || n.State() != Idle {
		t.Fatal("accessors")
	}
	if n.Params().CPUDynAtTop != DefaultParams().CPUDynAtTop {
		t.Fatal("params")
	}
	want := DefaultParams().BoardIdle + DefaultParams().MemoryIdle +
		DefaultParams().DiskIdle + DefaultParams().NICIdle
	if got := DefaultParams().NonCPUIdle(); got != want {
		t.Fatalf("NonCPUIdle = %v want %v", got, want)
	}
}

func TestComputeFlops(t *testing.T) {
	g, e, n := newTestNode(t)
	var d sim.Duration
	e.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		n.ComputeFlops(p, 1.4e9) // at 1 flop/cycle this is ~1s at 1.4GHz
		d = p.Now().Sub(start)
	})
	run(t, g)
	if d < 990*sim.Millisecond || d > 1010*sim.Millisecond {
		t.Fatalf("1.4 Gflop took %v", d)
	}
}

func TestCopyBytesAndCycles(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		n.CopyBytes(p, 1<<20) // 1 MB
		d := p.Now().Sub(start)
		// 16384 lines × (6.5 cycles/1.4GHz + 27.5ns) ≈ 0.53ms.
		if d < 300*sim.Microsecond || d > 900*sim.Microsecond {
			t.Errorf("1MB copy took %v", d)
		}
		n.CopyBytes(p, 0) // no-op
		start2 := p.Now()
		n.CopyCycles(p, 1.4e6) // 1ms of cycle-priced copy work
		if got := p.Now().Sub(start2); got < 990*sim.Microsecond || got > 1100*sim.Microsecond {
			t.Errorf("CopyCycles took %v", got)
		}
	})
	run(t, g)
	if ct := n.StateTime(Copy); ct <= 0 {
		t.Fatal("copy state never booked")
	}
}

func TestComponentPower(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		var sum power.Watts
		for _, c := range power.Components() {
			sum += n.ComponentPower(c)
		}
		if sum != n.Power() {
			t.Errorf("component powers %v != total %v", sum, n.Power())
		}
		if n.ComponentPower(power.Board) != DefaultParams().BoardIdle {
			t.Error("board power")
		}
	})
	run(t, g)
}

func TestZeroWorkIsFree(t *testing.T) {
	g, e, n := newTestNode(t)
	e.Spawn("w", func(p *sim.Proc) {
		start := p.Now()
		n.MemoryRounds(p, 0)
		n.MemoryRounds(p, -3)
		n.L2Rounds(p, 0)
		n.Compute(p, 0)
		n.Compute(p, -1)
		if p.Now() != start {
			t.Error("zero work consumed time")
		}
	})
	run(t, g)
}

func TestLowPowerParams(t *testing.T) {
	lp := LowPowerParams()
	if lp.Table.Len() != 1 {
		t.Fatal("low-power node must have a single operating point")
	}
	if lp.Table.Highest().Freq != 667*dvfs.MHz {
		t.Fatalf("freq %v", lp.Table.Highest().Freq)
	}
	// A low-power node under full load draws far less than the
	// Pentium M node...
	_, e := oneShard(t)
	n := NewNode(e, 0, lp)
	n.SetState(Compute)
	lpPower := n.Power()
	_, e2 := oneShard(t)
	n2 := NewNode(e2, 0, DefaultParams())
	n2.SetState(Compute)
	if lpPower >= n2.Power()/2 {
		t.Fatalf("low-power node draws %v vs %v", lpPower, n2.Power())
	}
	// ...but also computes much more slowly.
	if lp.Table.Highest().CyclesToDuration(1e9) <= DefaultParams().Table.Highest().CyclesToDuration(1e9) {
		t.Fatal("low-power node should be slower")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := LowPowerParams().Validate(); err != nil {
		t.Fatal(err)
	}
	breakers := []func(*Params){
		func(p *Params) { p.CPUDynAtTop = 0 },
		func(p *Params) { p.CPULeakPerV2 = -1 },
		func(p *Params) { p.CPUIdleActivity = 2 },
		func(p *Params) { p.ActivityCompute = 0 },
		func(p *Params) { p.MemLatency = 0 },
		func(p *Params) { p.L2CyclesPerAccess = 0 },
		func(p *Params) { p.FlopsPerCycle = 0 },
		func(p *Params) { p.Transition.Latency = -1 },
		func(p *Params) { p.BoardIdle = -1 },
		func(p *Params) { p.NICActive = -1 },
	}
	for i, brk := range breakers {
		p := DefaultParams()
		brk(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("breaker %d: expected error", i)
		}
	}
}
