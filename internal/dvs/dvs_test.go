package dvs

import (
	"testing"

	"repro/internal/dvfs"
	"repro/internal/machine"
	"repro/internal/powerpack"
	"repro/internal/sim"
)

// newCluster builds n fresh nodes on the engine of a one-shard group,
// closed when the test ends.
func newCluster(t *testing.T, n int) (*sim.Group, *sim.Engine, []*machine.Node) {
	t.Helper()
	g := sim.NewGroup(1, sim.Second)
	t.Cleanup(g.Close)
	e := g.Engine(0)
	nodes := make([]*machine.Node, n)
	for i := range nodes {
		nodes[i] = machine.NewNode(e, i, machine.DefaultParams())
	}
	return g, e, nodes
}

func mustRun(t *testing.T, g *sim.Group) {
	t.Helper()
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestStaticPinsAllNodes(t *testing.T) {
	g, e, nodes := newCluster(t, 4)
	pol := (Static{}).Install(InstallCtx{Eng: e, Nodes: nodes, BaseIdx: 3})
	if pol != nil {
		t.Fatal("static should not install a region policy")
	}
	e.Spawn("w", func(p *sim.Proc) { p.Sleep(sim.Second) })
	mustRun(t, g)
	for i, n := range nodes {
		if n.OPIndex() != 3 {
			t.Fatalf("node %d at index %d", i, n.OPIndex())
		}
	}
	if (Static{}).Name() != "static" {
		t.Fatal("name")
	}
}

func TestDynamicDropsAndRestores(t *testing.T) {
	g, e, nodes := newCluster(t, 1)
	d := NewDynamic("fft")
	pol := d.Install(InstallCtx{Eng: e, Nodes: nodes, BaseIdx: 1})
	if pol == nil {
		t.Fatal("dynamic must install a policy")
	}
	n := nodes[0]
	prof := powerpack.NewProfiler()
	ctx := powerpack.NewNodeCtx(n, prof, pol)
	var inRegion, inOther dvfs.Hz
	e.Spawn("app", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond) // let the async base-point switch land
		ctx.EnterRegion(p, "fft")
		inRegion = n.OperatingPoint().Freq
		n.Compute(p, 1e6)
		ctx.ExitRegion(p, "fft")

		ctx.EnterRegion(p, "io") // not in the policy's region list
		inOther = n.OperatingPoint().Freq
		ctx.ExitRegion(p, "io")
	})
	mustRun(t, g)
	if inRegion != 600*dvfs.MHz {
		t.Fatalf("inside region at %v, want 600MHz", inRegion)
	}
	if inOther != 1200*dvfs.MHz {
		t.Fatalf("outside region at %v, want base 1200MHz", inOther)
	}
	if n.OperatingPoint().Freq != 1200*dvfs.MHz {
		t.Fatalf("final frequency %v", n.OperatingPoint().Freq)
	}
}

func TestDynamicNestedRegions(t *testing.T) {
	g, e, nodes := newCluster(t, 1)
	d := NewDynamic() // all regions
	pol := d.Install(InstallCtx{Eng: e, Nodes: nodes, BaseIdx: 0})
	n := nodes[0]
	ctx := powerpack.NewNodeCtx(n, powerpack.NewProfiler(), pol)
	transitionsMid := 0
	e.Spawn("app", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		ctx.EnterRegion(p, "outer")
		before := n.Transitions()
		ctx.EnterRegion(p, "inner") // nested: no extra transition
		ctx.ExitRegion(p, "inner")  // still nested: no restore yet
		transitionsMid = n.Transitions() - before
		if n.OperatingPoint().Freq != 600*dvfs.MHz {
			t.Error("left low point on inner exit")
		}
		ctx.ExitRegion(p, "outer")
	})
	mustRun(t, g)
	if transitionsMid != 0 {
		t.Fatalf("nested region caused %d transitions", transitionsMid)
	}
	if n.OperatingPoint().Freq != 1400*dvfs.MHz {
		t.Fatalf("final %v", n.OperatingPoint().Freq)
	}
}

func TestDynamicExplicitTarget(t *testing.T) {
	g, e, nodes := newCluster(t, 1)
	d := &Dynamic{TargetIdx: 2}
	pol := d.Install(InstallCtx{Eng: e, Nodes: nodes, BaseIdx: 0})
	n := nodes[0]
	ctx := powerpack.NewNodeCtx(n, powerpack.NewProfiler(), pol)
	e.Spawn("app", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		ctx.EnterRegion(p, "r")
		if n.OperatingPoint().Freq != 1000*dvfs.MHz {
			t.Errorf("target not applied: %v", n.OperatingPoint().Freq)
		}
		ctx.ExitRegion(p, "r")
	})
	mustRun(t, g)
}

func TestCpuspeedStaysHighUnderBusyLoad(t *testing.T) {
	g, e, nodes := newCluster(t, 1)
	n := nodes[0]
	done := false
	NewCpuspeed().Install(InstallCtx{Eng: e, Nodes: nodes, Done: func() bool { return done }})
	e.Spawn("app", func(p *sim.Proc) {
		n.Compute(p, 1.4e9*10) // 10 s of full-tilt work
		done = true
	})
	mustRun(t, g)
	if n.OPIndex() != 0 {
		t.Fatalf("busy node stepped down to index %d", n.OPIndex())
	}
	if n.Transitions() != 0 {
		t.Fatalf("%d transitions under constant load", n.Transitions())
	}
}

func TestCpuspeedStepsDownWhenIdle(t *testing.T) {
	g, e, nodes := newCluster(t, 1)
	n := nodes[0]
	done := false
	NewCpuspeed().Install(InstallCtx{Eng: e, Nodes: nodes, Done: func() bool { return done }})
	e.Spawn("app", func(p *sim.Proc) {
		n.IdleFor(p, 10*sim.Second)
		done = true
	})
	mustRun(t, g)
	// One step per interval: after 10 idle seconds it must be at the
	// bottom.
	if n.OPIndex() != n.Params().Table.Len()-1 {
		t.Fatalf("idle node at index %d", n.OPIndex())
	}
}

func TestCpuspeedJumpsBackToMax(t *testing.T) {
	g, e, nodes := newCluster(t, 1)
	n := nodes[0]
	done := false
	NewCpuspeed().Install(InstallCtx{Eng: e, Nodes: nodes, Done: func() bool { return done }})
	var idxAfterIdle int
	e.Spawn("app", func(p *sim.Proc) {
		n.IdleFor(p, 8*sim.Second)
		idxAfterIdle = n.OPIndex()
		n.Compute(p, 1.4e9*5) // sustained load
		done = true
	})
	mustRun(t, g)
	if idxAfterIdle == 0 {
		t.Fatal("daemon never stepped down during idle")
	}
	if n.OPIndex() != 0 {
		t.Fatalf("daemon did not jump back to max: index %d", n.OPIndex())
	}
	// The jump must be a single transition from wherever it was, not a
	// walk: count upward transitions of more than one step.
	jumped := false
	for _, ch := range n.FreqLog() {
		if ch.To.Freq == 1400*dvfs.MHz && ch.From.Freq <= 1000*dvfs.MHz {
			jumped = true
		}
	}
	if !jumped {
		t.Fatal("expected a direct jump to 1.4GHz")
	}
}

func TestCpuspeedTerminatesOnDone(t *testing.T) {
	g, e, nodes := newCluster(t, 2)
	done := false
	NewCpuspeed().Install(InstallCtx{Eng: e, Nodes: nodes, Done: func() bool { return done }})
	e.Spawn("app", func(p *sim.Proc) {
		p.Sleep(3 * sim.Second)
		done = true
	})
	mustRun(t, g) // would deadlock/never drain if daemons did not exit
	if e.Live() != 0 {
		t.Fatalf("%d processes still live", e.Live())
	}
}

func TestCpuspeedInvalidInterval(t *testing.T) {
	_, e, nodes := newCluster(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Cpuspeed{Interval: 0}).Install(InstallCtx{Eng: e, Nodes: nodes})
}

func TestStrategyNames(t *testing.T) {
	if NewCpuspeed().Name() != "cpuspeed" || NewDynamic().Name() != "dynamic" {
		t.Fatal("names")
	}
}

func TestSlackGovernorScalesWaitingNodeDown(t *testing.T) {
	g, e, nodes := newCluster(t, 2)
	done := false
	NewSlack().Install(InstallCtx{Eng: e, Nodes: nodes, BaseIdx: 0, Done: func() bool { return done }})
	// Node 0 computes; node 1 sits in MPI-style spin-wait.
	e.Spawn("busy", func(p *sim.Proc) {
		nodes[0].Compute(p, 1.4e9*8) // 8 s of work
		done = true
	})
	e.Spawn("waiting", func(p *sim.Proc) {
		nodes[1].SetState(machine.Spin)
		p.Sleep(8 * sim.Second)
		nodes[1].SetState(machine.Idle)
	})
	mustRun(t, g)
	if nodes[0].OPIndex() != 0 {
		t.Fatalf("busy node stepped down to %d", nodes[0].OPIndex())
	}
	if nodes[1].OPIndex() != nodes[1].Params().Table.Len()-1 {
		t.Fatalf("waiting node only reached index %d", nodes[1].OPIndex())
	}
}

func TestSlackGovernorRecovers(t *testing.T) {
	g, e, nodes := newCluster(t, 1)
	n := nodes[0]
	done := false
	NewSlack().Install(InstallCtx{Eng: e, Nodes: nodes, BaseIdx: 0, Done: func() bool { return done }})
	e.Spawn("app", func(p *sim.Proc) {
		n.SetState(machine.Spin) // long wait: governor walks down
		p.Sleep(5 * sim.Second)
		n.SetState(machine.Idle)
		n.Compute(p, 1.4e9*5) // sustained work: governor walks back up
		done = true
	})
	mustRun(t, g)
	if n.OPIndex() != 0 {
		t.Fatalf("governor did not recover to base: index %d", n.OPIndex())
	}
}

func TestSlackGovernorRespectsBasePoint(t *testing.T) {
	g, e, nodes := newCluster(t, 1)
	n := nodes[0]
	done := false
	// Base point is 1.0 GHz (index 2): recovery must stop there.
	NewSlack().Install(InstallCtx{Eng: e, Nodes: nodes, BaseIdx: 2, Done: func() bool { return done }})
	e.Spawn("app", func(p *sim.Proc) {
		n.SetState(machine.Spin)
		p.Sleep(4 * sim.Second)
		n.SetState(machine.Idle)
		n.Compute(p, 1e9*5)
		done = true
	})
	mustRun(t, g)
	if n.OPIndex() != 2 {
		t.Fatalf("governor at index %d, want base 2", n.OPIndex())
	}
}

func TestSlackGovernorValidation(t *testing.T) {
	_, e, nodes := newCluster(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(&Slack{Interval: 0}).Install(InstallCtx{Eng: e, Nodes: nodes})
}
