package mpi

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// spinProgram drives the library's spin-then-block wait through the
// cases where the fallback to a blocked wait applies, or must not: two
// requests waiting at once on one rank (one spin, one shared state
// token), a spin broken by an asynchronous frequency change, a wait
// longer than any finite threshold, a rendezvous Sendrecv whose drain
// and receive spin together, and an imbalanced Alltoall and Barrier.
func spinProgram(p *sim.Proc, r *Rank, log *[]string) {
	me := r.ID()
	logf := func(f string, args ...any) {
		*log = append(*log, fmt.Sprintf("%v ", p.Now())+fmt.Sprintf(f, args...))
	}

	// Two receives pending at once on rank 0, fed 30 µs and 120 µs late.
	switch me {
	case 0:
		a, b := r.Irecv(p, 1, 1), r.Irecv(p, 2, 1)
		r.Waitall(p, a, b)
		logf("pair %d %d", a.msg.Size, b.msg.Size)
	case 1:
		p.Sleep(30 * sim.Microsecond)
		r.Send(p, 0, 1, 2048, nil)
	case 2:
		p.Sleep(120 * sim.Microsecond)
		r.Send(p, 0, 1, 200_000, nil)
	}

	// A frequency change lands 20 µs into rank 3's spin; the send it
	// waits for starts 200 µs later.
	switch me {
	case 0:
		p.Sleep(200 * sim.Microsecond)
		r.Send(p, 3, 2, 4096, nil)
	case 3:
		n := r.Node()
		r.eng().After(20*sim.Microsecond, func() {
			if err := n.SetOperatingPointIndexAsync(1); err != nil {
				panic(err)
			}
		})
		logf("dvfs %d", r.Recv(p, 0, 2).Size)
	}

	// A wait longer than every finite threshold.
	switch me {
	case 1:
		logf("long %d", r.Recv(p, 2, 3).Size)
	case 2:
		p.Sleep(4500 * sim.Millisecond)
		r.Send(p, 1, 3, 100_000, nil)
	}

	// Rendezvous exchange around the ring.
	n := r.Size()
	m := r.Sendrecv(p, (me+1)%n, 4, 300_000, nil, (me+n-1)%n, 4)
	logf("ring src%d", m.Src)

	r.Node().Compute(p, float64(me)*2e5)
	r.Alltoall(p, 80<<10)
	r.Barrier(p)
	logf("done, %d frequency transitions", r.Node().Transitions())
}

// TestSpinToBlockGolden pins when the spin-then-block wait falls back
// to a blocked wait, on four ranks at one and two shards. A fallback
// moved by one event, or one that applies to a spin another wait or a
// frequency change has since replaced, moves a state boundary and
// changes the digest. The thresholds cover an immediate fallback, one shorter than
// most waits here, the default (only the multi-second wait outlasts
// it) and spin-forever.
func TestSpinToBlockGolden(t *testing.T) {
	cases := []struct {
		name string
		spin sim.Duration
		want string
	}{
		{"zero", 0, "b59f473f9dd7e83c9e27d019f0aa88adf6fe4928c57ba98252ea0582af2d06a5"},
		{"50us", 50 * sim.Microsecond, "7c2fac615271ac8e31b255760f8b189b32ec6f4fa3296add0345f80542d814d3"},
		{"default", DefaultConfig().SpinThreshold, "e9cb4fafb8928b5cbfe26415ad5ea85f144c44c90f92ed20fb9ffca14fec1e3b"},
		{"spin-forever", -1, "50183797334c939438ad76280f48d6c207d4019a6802fae310b14d84769c5d1c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tweak := func(c *Config) { c.SpinThreshold = tc.spin }
			for _, k := range []int{1, 2} {
				if got := goldenDigest(t, k, 4, tweak, spinProgram); got != tc.want {
					t.Errorf("K=%d: digest %s, want %s", k, got, tc.want)
				}
			}
		})
	}
}
