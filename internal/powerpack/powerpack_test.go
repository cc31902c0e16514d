package powerpack

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// oneShard returns a fresh one-shard group and its engine, closed when
// the test ends.
func oneShard(t *testing.T) (*sim.Group, *sim.Engine) {
	g := sim.NewGroup(1, sim.Second)
	t.Cleanup(g.Close)
	return g, g.Engine(0)
}

func newCtx(t *testing.T, policy RegionPolicy) (*sim.Group, *machine.Node, *Profiler, *NodeCtx) {
	t.Helper()
	g, e := oneShard(t)
	n := machine.NewNode(e, 0, machine.DefaultParams())
	prof := NewProfiler()
	return g, n, prof, NewNodeCtx(n, prof, policy)
}

func mustRun(t *testing.T, g *sim.Group) {
	t.Helper()
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestRegionProfileAccumulates(t *testing.T) {
	g, n, _, ctx := newCtx(t, nil)
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			ctx.EnterRegion(p, "fft")
			n.Compute(p, 1.4e8) // ~100ms
			ctx.ExitRegion(p, "fft")
			n.IdleFor(p, 50*sim.Millisecond)
		}
	})
	mustRun(t, g)
	rp := ctx.Profile("fft")
	if rp == nil {
		t.Fatal("no profile")
	}
	if rp.Count != 3 {
		t.Fatalf("count = %d", rp.Count)
	}
	// ~300ms inside the region, none of the idle time.
	if rp.Time < 295*sim.Millisecond || rp.Time > 310*sim.Millisecond {
		t.Fatalf("region time = %v", rp.Time)
	}
	if rp.Energy <= 0 {
		t.Fatal("region energy must be positive")
	}
	// Region energy excludes the idle gaps: it must be well below the
	// node total.
	total := n.EnergyAt(n.Engine().Now())
	if rp.Energy >= total {
		t.Fatalf("region energy %v >= total %v", rp.Energy, total)
	}
}

func TestRegionNesting(t *testing.T) {
	g, n, _, ctx := newCtx(t, nil)
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		ctx.EnterRegion(p, "outer")
		n.Compute(p, 1e7)
		ctx.EnterRegion(p, "inner")
		n.Compute(p, 1e7)
		ctx.ExitRegion(p, "inner")
		n.Compute(p, 1e7)
		ctx.ExitRegion(p, "outer")
	})
	mustRun(t, g)
	outer, inner := ctx.Profile("outer"), ctx.Profile("inner")
	if outer == nil || inner == nil {
		t.Fatal("missing profiles")
	}
	if outer.Time <= inner.Time {
		t.Fatalf("outer %v should exceed inner %v", outer.Time, inner.Time)
	}
}

func TestMismatchedExitPanics(t *testing.T) {
	g, _, _, ctx := newCtx(t, nil)
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		ctx.EnterRegion(p, "a")
		ctx.ExitRegion(p, "b")
	})
	mustRun(t, g)
}

func TestExitWithoutEnterPanics(t *testing.T) {
	g, _, _, ctx := newCtx(t, nil)
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		ctx.ExitRegion(p, "nope")
	})
	mustRun(t, g)
}

func TestTimelineAlignment(t *testing.T) {
	g, e := oneShard(t)
	prof := NewProfiler()
	var ctxs []*NodeCtx
	for i := 0; i < 3; i++ {
		n := machine.NewNode(e, i, machine.DefaultParams())
		ctx := NewNodeCtx(n, prof, nil)
		ctxs = append(ctxs, ctx)
		i := i
		e.Spawn("app", func(p *sim.Proc) {
			p.Sleep(sim.Duration(3-i) * 10 * sim.Millisecond)
			ctx.Mark("hello")
		})
	}
	mustRun(t, g)
	tl := prof.Timeline()
	if len(tl) != 3 {
		t.Fatalf("%d events", len(tl))
	}
	// Aligned by time: node 2 marked first, node 0 last.
	if tl[0].Node != 2 || tl[2].Node != 0 {
		t.Fatalf("timeline order: %+v", tl)
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].At < tl[i-1].At {
			t.Fatal("timeline not sorted")
		}
	}
	if got := prof.NodeEvents(1); len(got) != 1 || got[0].Node != 1 {
		t.Fatalf("NodeEvents = %+v", got)
	}
}

type recordingPolicy struct {
	calls []string
}

func (r *recordingPolicy) OnEnter(p *sim.Proc, n *machine.Node, region string) {
	r.calls = append(r.calls, "enter:"+region)
}
func (r *recordingPolicy) OnExit(p *sim.Proc, n *machine.Node, region string) {
	r.calls = append(r.calls, "exit:"+region)
}

func TestPolicyHooksFire(t *testing.T) {
	pol := &recordingPolicy{}
	g, n, _, ctx := newCtx(t, pol)
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		ctx.EnterRegion(p, "fft")
		n.Compute(p, 1e6)
		ctx.ExitRegion(p, "fft")
	})
	mustRun(t, g)
	if len(pol.calls) != 2 || pol.calls[0] != "enter:fft" || pol.calls[1] != "exit:fft" {
		t.Fatalf("calls = %v", pol.calls)
	}
}

func TestSetFrequencyIndexLogsAndSwitches(t *testing.T) {
	g, n, prof, ctx := newCtx(t, nil)
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		ctx.SetFrequencyIndex(p, 4)
		ctx.SetFrequencyIndex(p, 4) // no-op, not logged
	})
	mustRun(t, g)
	if n.OPIndex() != 4 {
		t.Fatal("frequency not applied")
	}
	var freqEvents int
	for _, ev := range prof.Events() {
		if ev.Kind == EventFreq {
			freqEvents++
			if ev.Label != "600MHz" {
				t.Fatalf("label = %q", ev.Label)
			}
		}
	}
	if freqEvents != 1 {
		t.Fatalf("%d freq events", freqEvents)
	}
}

func TestMergeProfiles(t *testing.T) {
	g, e := oneShard(t)
	prof := NewProfiler()
	var ctxs []*NodeCtx
	for i := 0; i < 2; i++ {
		n := machine.NewNode(e, i, machine.DefaultParams())
		ctx := NewNodeCtx(n, prof, nil)
		ctxs = append(ctxs, ctx)
		e.Spawn("app", func(p *sim.Proc) {
			ctx.EnterRegion(p, "work")
			n.Compute(p, 1.4e8)
			ctx.ExitRegion(p, "work")
		})
	}
	mustRun(t, g)
	merged := MergeProfiles(ctxs, "work")
	if merged.Count != 2 {
		t.Fatalf("count = %d", merged.Count)
	}
	if merged.Time < 190*sim.Millisecond {
		t.Fatalf("time = %v", merged.Time)
	}
	if merged.Energy <= 0 {
		t.Fatal("energy")
	}
	if empty := MergeProfiles(ctxs, "absent"); empty.Count != 0 {
		t.Fatal("absent region should merge to zero")
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{EventEnter, EventExit, EventMark, EventFreq} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if EventKind(9).String() != "event(9)" {
		t.Fatal("unknown kind")
	}
}

func TestEventsReturnsCopy(t *testing.T) {
	g, _, prof, ctx := newCtx(t, nil)
	g.Engine(0).Spawn("app", func(p *sim.Proc) { ctx.Mark("x") })
	mustRun(t, g)
	evs := prof.Events()
	evs[0].Label = "mutated"
	if prof.Events()[0].Label != "x" {
		t.Fatal("Events leaked internal slice")
	}
}

func TestNodeCtxAccessorsAndProfiles(t *testing.T) {
	g, n, _, ctx := newCtx(t, nil)
	if ctx.Node() != n {
		t.Fatal("Node accessor")
	}
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		ctx.EnterRegion(p, "b")
		n.Compute(p, 1e6)
		ctx.ExitRegion(p, "b")
		ctx.EnterRegion(p, "a")
		n.Compute(p, 1e6)
		ctx.ExitRegion(p, "a")
	})
	mustRun(t, g)
	ps := ctx.Profiles()
	if len(ps) != 2 || ps[0].Region != "a" || ps[1].Region != "b" {
		t.Fatalf("Profiles not sorted: %+v", ps)
	}
	if ctx.Profile("absent") != nil {
		t.Fatal("absent profile should be nil")
	}
}

func TestProfilerWriteCSV(t *testing.T) {
	g, n, prof, ctx := newCtx(t, nil)
	g.Engine(0).Spawn("app", func(p *sim.Proc) {
		ctx.EnterRegion(p, "fft")
		n.Compute(p, 1e7)
		ctx.ExitRegion(p, "fft")
		ctx.Mark("done")
	})
	mustRun(t, g)
	var sb strings.Builder
	if err := prof.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"time_s,node,kind,label,energy_j", "enter,fft", "exit,fft", "mark,done"} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(strings.TrimSpace(out), "\n"); got != 3 {
		t.Fatalf("%d data rows", got)
	}
}
