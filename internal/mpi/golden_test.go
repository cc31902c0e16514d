package mpi

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/power"
	"repro/internal/sim"
)

// goldenProgram mixes every point-to-point path the request machinery
// has: eager and rendezvous Isend, Irecv with AnySource, a self-send,
// Sendrecv, Probe, blocking Send/Recv, a receive posted long before its
// sender starts, and eager- and rendezvous-size Alltoall. Each rank logs
// what it received and when.
func goldenProgram(p *sim.Proc, r *Rank, log *[]string) {
	n, me := r.Size(), r.ID()
	next, prev := (me+1)%n, (me+n-1)%n
	logf := func(f string, args ...any) {
		*log = append(*log, fmt.Sprintf("%v ", p.Now())+fmt.Sprintf(f, args...))
	}
	logMsg := func(what string, m *Message) {
		logf("%s src%d tag%d sz%d %v", what, m.Src, m.Tag, m.Size, m.Payload)
	}

	// Self-send, completed by a blocking receive.
	sq := r.Isend(p, me, 1, 512, "self")
	logMsg("self", r.Recv(p, me, 1))
	r.Wait(p, sq)

	// Wildcard receives fed by one eager and one rendezvous sender.
	reqs := []*Request{
		r.Irecv(p, AnySource, 2),
		r.Irecv(p, AnySource, 2),
		r.Isend(p, next, 2, 4096+int64(me), fmt.Sprintf("e%d", me)),
		r.Isend(p, (me+2)%n, 2, 200_000+int64(me), fmt.Sprintf("r%d", me)),
	}
	for _, q := range reqs {
		if m := r.Wait(p, q); m != nil {
			logMsg("any", m)
		}
	}

	// Rendezvous Sendrecv around the ring.
	logMsg("sendrecv", r.Sendrecv(p, prev, 3, 100_000, me, next, 3))

	// Probe for a rendezvous envelope, then claim it.
	r.Node().Compute(p, float64(me+1)*1e6)
	pq := r.Isend(p, (me+3)%n, 4, 150_000, me)
	env := r.Probe(p, AnySource, 4)
	logf("probe src%d sz%d", env.Src, env.Size)
	logMsg("probed", r.Recv(p, env.Src, 4))
	r.Wait(p, pq)

	// Blocking eager send around the ring.
	r.Send(p, next, 6, 2048*int64(me+1), me)
	logMsg("ring", r.Recv(p, prev, 6))

	// A receive posted milliseconds before its sender starts: long
	// enough to fall back from spinning to a blocked wait.
	switch me {
	case 0:
		logMsg("late", r.Wait(p, r.Irecv(p, n-1, 5)))
	case n - 1:
		p.Sleep(5 * sim.Millisecond)
		r.Wait(p, r.Isend(p, 0, 5, 300_000, "late"))
	}

	r.Alltoall(p, 8<<10)
	r.Alltoall(p, 100<<10)
	logf("done")
}

// goldenDigest runs prog on n ranks over the given number of shards and
// hashes every rank's log, traffic counters, per-state times and
// per-component energies at the common end time.
func goldenDigest(t *testing.T, shards, n int, tweak func(*Config), prog func(p *sim.Proc, r *Rank, log *[]string)) string {
	t.Helper()
	g, w := shardedWorld(shards, n, tweak)
	defer g.Close()
	logs := make([][]string, n)
	ends := make([]sim.Time, n)
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		prog(p, r, &logs[r.ID()])
		ends[r.ID()] = p.Now()
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	var end sim.Time
	for _, e := range ends {
		end = max(end, e)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "end %d\n", end)
	for i := 0; i < n; i++ {
		nd := w.Rank(i).Node()
		fmt.Fprintf(&b, "rank %d %+v\n", i, w.Rank(i).Stats())
		for _, line := range logs[i] {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		for _, s := range machine.States() {
			fmt.Fprintf(&b, "  %v %d\n", s, nd.StateTimeAt(s, end))
		}
		for _, c := range power.Components() {
			fmt.Fprintf(&b, "  %v %v\n", c, float64(nd.ComponentEnergyAt(c, end)))
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))
}

// TestGoldenEventOrder pins the exact event order of the point-to-point
// layer. Any change to when a request resumes, or to the order in which
// it consumes engine sequence numbers, moves a state boundary and
// changes the digests, and so would change every simulated result.
// Three spin thresholds cover the default (waits never block), a short
// one (waits and rendezvous drains fall back to blocked) and
// spin-forever.
func TestGoldenEventOrder(t *testing.T) {
	cases := []struct {
		name string
		spin sim.Duration
		want string
	}{
		{"default", DefaultConfig().SpinThreshold, "1ac407dba13f9b6d9263ef417e835dc3c4a7140bc33081755fcd5c89aa742a5e"},
		{"short-spin", 200 * sim.Microsecond, "19759d96afcd4736244f1820441006b1761aed99c33500d4c5188ea9def59a34"},
		{"spin-forever", -1, "1ac407dba13f9b6d9263ef417e835dc3c4a7140bc33081755fcd5c89aa742a5e"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tweak := func(c *Config) { c.SpinThreshold = tc.spin }
			for _, k := range []int{1, 2} {
				if got := goldenDigest(t, k, 5, tweak, goldenProgram); got != tc.want {
					t.Errorf("K=%d: digest %s, want %s", k, got, tc.want)
				}
			}
		})
	}
}

// requireDeadlock runs body on two ranks, first on a one-shard group
// and then on a two-shard one, and demands ErrDeadlock with exactly
// blocked parked waiters each time.
func requireDeadlock(t *testing.T, blocked int, body func(p *sim.Proc, r *Rank)) {
	t.Helper()
	want := fmt.Sprintf("(%d blocked)", blocked)
	for _, k := range []int{1, 2} {
		g, w := shardedWorld(k, 2, nil)
		w.SpawnRanks(body)
		_, err := g.Run(0)
		if !errors.Is(err, sim.ErrDeadlock) || !strings.Contains(err.Error(), want) {
			t.Errorf("K=%d: err = %v, want ErrDeadlock %s", k, err, want)
		}
		n := 0
		for i := 0; i < g.Size(); i++ {
			n += g.Engine(i).Blocked()
		}
		if n != blocked {
			t.Errorf("K=%d: Blocked = %d, want %d", k, n, blocked)
		}
		g.Close()
	}
}

// An Irecv that nothing matches is a deadlock whether or not the rank
// waits on it: the pending request itself counts as blocked.
func TestUnmatchedIrecvDeadlocks(t *testing.T) {
	t.Run("abandoned", func(t *testing.T) {
		requireDeadlock(t, 1, func(p *sim.Proc, r *Rank) {
			if r.ID() == 1 {
				r.Irecv(p, 0, 9)
			}
		})
	})
	t.Run("waited", func(t *testing.T) {
		requireDeadlock(t, 2, func(p *sim.Proc, r *Rank) {
			if r.ID() == 1 {
				r.Wait(p, r.Irecv(p, AnySource, 9))
			}
		})
	})
}

// A rendezvous Isend whose receiver never posts stalls waiting for the
// clear-to-send, and that stall is a deadlock too.
func TestUnmatchedRendezvousIsendDeadlocks(t *testing.T) {
	t.Run("abandoned", func(t *testing.T) {
		requireDeadlock(t, 1, func(p *sim.Proc, r *Rank) {
			if r.ID() == 0 {
				r.Isend(p, 1, 9, 1<<20, nil)
			}
		})
	})
	t.Run("waited", func(t *testing.T) {
		requireDeadlock(t, 2, func(p *sim.Proc, r *Rank) {
			if r.ID() == 0 {
				r.Wait(p, r.Isend(p, 1, 9, 1<<20, nil))
			}
		})
	})
}
