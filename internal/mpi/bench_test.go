package mpi

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkIsendEager measures one eager exchange as requests: each of
// two ranks Isends 1 KiB to the other, Recvs the peer's message and
// Waits for its own send. One op is one exchange (two messages), so
// allocs/op is the per-message protocol state of the request path.
func BenchmarkIsendEager(b *testing.B) {
	g, w := testWorld(2, nil)
	defer g.Close()
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		peer := 1 - r.ID()
		for i := 0; i < b.N; i++ {
			q := r.Isend(p, peer, 0, 1024, nil)
			r.Recv(p, peer, 0)
			r.Wait(p, q)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := g.Run(0); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAlltoall64 measures one pairwise-exchange Alltoall of 1 KiB
// per peer across 64 ranks (4,032 eager messages per op), the
// communication pattern that dominates the paper's FT runs.
func BenchmarkAlltoall64(b *testing.B) {
	g, w := testWorld(64, nil)
	defer g.Close()
	w.SpawnRanks(func(p *sim.Proc, r *Rank) {
		for i := 0; i < b.N; i++ {
			r.Alltoall(p, 1024)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := g.Run(0); err != nil {
		b.Fatal(err)
	}
}
