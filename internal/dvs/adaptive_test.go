package dvs

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/powerpack"
	"repro/internal/sim"
)

// runAdaptive executes visits of a synthetic region under the adaptive
// governor and returns the policy for inspection.
func runAdaptive(t *testing.T, visits int, body func(p *sim.Proc, n *machine.Node)) (*adaptivePolicy, *machine.Node) {
	t.Helper()
	g, e, nodes := newCluster(t, 1)
	n := nodes[0]
	a := NewAdaptive()
	pol := a.Install(InstallCtx{Eng: e, Nodes: []*machine.Node{n}, BaseIdx: 0}).(*adaptivePolicy)
	ctx := powerpack.NewNodeCtx(n, powerpack.NewProfiler(), pol)
	e.Spawn("app", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		for i := 0; i < visits; i++ {
			ctx.EnterRegion(p, "r")
			body(p, n)
			ctx.ExitRegion(p, "r")
			n.IdleFor(p, 10*sim.Millisecond)
		}
	})
	mustRun(t, g)
	return pol, n
}

func TestAdaptiveConvergesOnMemoryBoundRegion(t *testing.T) {
	// A memory-bound region has its weighted-ED2P optimum at a low
	// frequency; after probing all five points the governor must have
	// converged there.
	pol, n := runAdaptive(t, 8, func(p *sim.Proc, n *machine.Node) {
		n.MemoryRounds(p, 2_000_000)
	})
	got := pol.Chosen(0, "r")
	if got < 3 { // 800MHz or 600MHz
		t.Fatalf("converged on index %d, want a low operating point", got)
	}
	// After convergence the node returns to base outside the region.
	if n.OPIndex() != 0 {
		t.Fatalf("node left at index %d", n.OPIndex())
	}
}

func TestAdaptiveConvergesOnComputeBoundRegion(t *testing.T) {
	pol, _ := runAdaptive(t, 8, func(p *sim.Proc, n *machine.Node) {
		n.Compute(p, 3e7)
	})
	got := pol.Chosen(0, "r")
	if got != 0 && got != 1 {
		t.Fatalf("compute-bound region converged on index %d, want a fast point", got)
	}
}

func TestAdaptiveSkipsTinyRegions(t *testing.T) {
	pol, n := runAdaptive(t, 8, func(p *sim.Proc, n *machine.Node) {
		n.Compute(p, 1000) // sub-microsecond: not worth a transition
	})
	if got := pol.Chosen(0, "r"); got != -1 {
		t.Fatalf("tiny region should be skipped, got %d", got)
	}
	// A skipped region must not keep switching: at most the initial
	// probe transition happened.
	if n.Transitions() > 2 {
		t.Fatalf("%d transitions on a skipped region", n.Transitions())
	}
}

func TestAdaptiveProbesEachPointOnce(t *testing.T) {
	pol, n := runAdaptive(t, 5, func(p *sim.Proc, n *machine.Node) {
		n.MemoryRounds(p, 1_000_000)
	})
	// Exactly 5 visits = 5 probes; convergence happens on exit of the
	// fifth visit.
	if got := pol.Chosen(0, "r"); got < 0 {
		t.Fatal("should have converged after probing all points")
	}
	st := pol.nodes[0].cells["r"]
	for i, s := range st.samples {
		if s.Energy <= 0 || s.Delay <= 0 {
			t.Fatalf("point %d never sampled: %+v", i, s)
		}
	}
	_ = n
}

func TestAdaptiveBeatsNothingOnMixedWorkload(t *testing.T) {
	// Sanity: the converged choice's weighted metric is no worse than
	// any sampled point's (it is the argmin of the samples).
	pol, _ := runAdaptive(t, 10, func(p *sim.Proc, n *machine.Node) {
		n.MemoryRounds(p, 500_000)
		n.Compute(p, 5e6)
	})
	st := pol.nodes[0].cells["r"]
	if st.chosen < 0 {
		t.Fatal("not converged")
	}
	best := core.WeightedED2P(st.samples[st.chosen].Energy, st.samples[st.chosen].Delay, core.DeltaHPC)
	for i, s := range st.samples {
		if core.WeightedED2P(s.Energy, s.Delay, core.DeltaHPC) < best-1e-12 {
			t.Fatalf("sample %d beats the chosen point", i)
		}
	}
}

func TestAdaptiveName(t *testing.T) {
	if NewAdaptive().Name() != "adaptive" {
		t.Fatal("name")
	}
}
