package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// oneShard returns a fresh one-shard group and its engine, closed when
// the test ends.
func oneShard(t *testing.T) (*sim.Group, *sim.Engine) {
	g := sim.NewGroup(1, sim.Microsecond)
	t.Cleanup(g.Close)
	return g, g.Engine(0)
}

func newSwitch(t *testing.T, ports int) (*sim.Group, *Switch) {
	g, e := oneShard(t)
	return g, New(e, ports, Config{BandwidthBytesPerSec: 1e6, Latency: 50 * sim.Microsecond})
}

func TestSerializationTime(t *testing.T) {
	_, s := newSwitch(t, 2)
	if got := s.SerializationTime(1_000_000); got != sim.Second {
		t.Fatalf("1MB at 1MB/s = %v", got)
	}
	if got := s.SerializationTime(0); got != 0 {
		t.Fatalf("0 bytes = %v", got)
	}
	if got := s.SerializationTime(-5); got != 0 {
		t.Fatalf("negative = %v", got)
	}
}

func TestSingleTransfer(t *testing.T) {
	_, s := newSwitch(t, 2)
	start, deliver := s.Transfer(0, 1, 500_000) // 0.5s serialization
	if start != 0 {
		t.Fatalf("start = %v", start)
	}
	want := sim.Time(500*sim.Millisecond + 50*sim.Microsecond)
	if deliver != want {
		t.Fatalf("deliver = %v want %v", deliver, want)
	}
}

func TestBackToBackSendsSerializeOnTxLink(t *testing.T) {
	_, s := newSwitch(t, 3)
	_, d1 := s.Transfer(0, 1, 1_000_000)
	start2, d2 := s.Transfer(0, 2, 1_000_000)
	// Second message waits for the first to leave the sender's link.
	if start2 != sim.Time(sim.Second) {
		t.Fatalf("start2 = %v", start2)
	}
	if d2.Sub(d1) != sim.Duration(sim.Second) {
		t.Fatalf("spacing = %v", d2.Sub(d1))
	}
}

func TestFanInSerializesOnRxLink(t *testing.T) {
	_, s := newSwitch(t, 3)
	_, d1 := s.Transfer(1, 0, 1_000_000)
	start2, d2 := s.Transfer(2, 0, 1_000_000)
	// Different senders, same receiver: the receive link is the
	// bottleneck and deliveries are spaced by serialization time.
	if d2.Sub(d1) != sim.Duration(sim.Second) {
		t.Fatalf("fan-in spacing = %v", d2.Sub(d1))
	}
	if start2 >= d1 {
		t.Fatalf("pipelining lost: start2=%v d1=%v", start2, d1)
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	_, s := newSwitch(t, 2)
	_, d1 := s.Transfer(0, 1, 1_000_000)
	_, d2 := s.Transfer(1, 0, 1_000_000)
	// Opposite directions share no link: both complete at the same time.
	if d1 != d2 {
		t.Fatalf("full duplex broken: %v vs %v", d1, d2)
	}
}

func TestDistinctPairsDoNotInterfere(t *testing.T) {
	_, s := newSwitch(t, 4)
	_, d1 := s.Transfer(0, 1, 1_000_000)
	_, d2 := s.Transfer(2, 3, 1_000_000)
	if d1 != d2 {
		t.Fatalf("non-blocking switch violated: %v vs %v", d1, d2)
	}
}

func TestTransferAfterIdleStartsNow(t *testing.T) {
	g, s := newSwitch(t, 2)
	s.Transfer(0, 1, 1000)
	g.Engine(0).Schedule(sim.Time(10*sim.Second), func() {
		start, _ := s.Transfer(0, 1, 1000)
		if start != sim.Time(10*sim.Second) {
			t.Errorf("start = %v", start)
		}
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	_, s := newSwitch(t, 3)
	s.Transfer(0, 1, 100)
	s.Transfer(1, 2, 200)
	s.Transfer(0, 2, 300)
	msgs, bytes := s.Stats()
	if msgs != 3 || bytes != 600 {
		t.Fatalf("stats = %d msgs %d bytes", msgs, bytes)
	}
	if s.PortBytes(0) != 400 || s.PortBytes(1) != 200 || s.PortBytes(2) != 0 {
		t.Fatalf("port bytes: %d %d %d", s.PortBytes(0), s.PortBytes(1), s.PortBytes(2))
	}
}

func TestBusyUntil(t *testing.T) {
	_, s := newSwitch(t, 2)
	_, deliver := s.Transfer(0, 1, 1_000_000)
	if s.TxBusyUntil(0) != sim.Time(sim.Second) {
		t.Fatalf("tx busy until %v", s.TxBusyUntil(0))
	}
	if s.RxBusyUntil(1) != deliver {
		t.Fatalf("rx busy until %v", s.RxBusyUntil(1))
	}
}

func TestPanics(t *testing.T) {
	g, s := newSwitch(t, 2)
	e := g.Engine(0)
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("self transfer", func() { s.Transfer(0, 0, 10) })
	mustPanic("bad port", func() { s.Transfer(0, 5, 10) })
	mustPanic("zero ports", func() { New(e, 0, Default100Mb()) })
	mustPanic("bad bandwidth", func() { New(e, 2, Config{BandwidthBytesPerSec: 0}) })
	mustPanic("neg latency", func() {
		New(e, 2, Config{BandwidthBytesPerSec: 1, Latency: -1})
	})
}

func TestDefault100Mb(t *testing.T) {
	cfg := Default100Mb()
	// Effective bandwidth must be below the 12.5 MB/s raw line rate and
	// above half of it (TCP on 100 Mb does better than 50%).
	if cfg.BandwidthBytesPerSec <= 6.25e6 || cfg.BandwidthBytesPerSec >= 12.5e6 {
		t.Fatalf("bandwidth %v implausible", cfg.BandwidthBytesPerSec)
	}
	if cfg.Latency <= 0 || cfg.Latency > sim.Millisecond {
		t.Fatalf("latency %v implausible", cfg.Latency)
	}
}

// Property: deliveries respect causality and per-link ordering.
func TestTransferInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		if len(ops) > 60 {
			ops = ops[:60]
		}
		_, e := oneShard(t)
		s := New(e, 4, Config{BandwidthBytesPerSec: 1e6, Latency: 10 * sim.Microsecond})
		lastDeliver := make(map[[2]int]sim.Time)
		ok := true
		for _, op := range ops {
			src := int(op % 4)
			dst := int((op / 4) % 4)
			if src == dst {
				continue
			}
			size := int64(op%1000) + 1
			start, deliver := s.Transfer(src, dst, size)
			if start < e.Now() {
				ok = false
			}
			if deliver < start.Add(s.SerializationTime(size)) {
				ok = false
			}
			// Per-pair FIFO: a later transfer never arrives earlier.
			key := [2]int{src, dst}
			if deliver < lastDeliver[key] {
				ok = false
			}
			lastDeliver[key] = deliver
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestControlBypassesLinkOccupancy(t *testing.T) {
	_, s := newSwitch(t, 2)
	// Saturate the 0→1 direction with bulk data.
	_, bulkDeliver := s.Transfer(0, 1, 10_000_000) // 10s serialization
	// A control message in the same direction is not queued behind it.
	ctrlDeliver := s.Control(0, 1, 64, 0)
	if ctrlDeliver >= bulkDeliver {
		t.Fatalf("control queued behind bulk: %v vs %v", ctrlDeliver, bulkDeliver)
	}
	want := sim.Time(s.SerializationTime(64) + s.Config().Latency)
	if ctrlDeliver != want {
		t.Fatalf("control deliver %v want %v", ctrlDeliver, want)
	}
	// Control traffic still counts in the stats.
	msgs, _ := s.Stats()
	if msgs != 2 {
		t.Fatalf("stats msgs = %d", msgs)
	}
	if s.Ports() != 2 {
		t.Fatal("ports")
	}
}

func TestControlValidation(t *testing.T) {
	_, s := newSwitch(t, 2)
	for _, fn := range []func(){
		func() { s.Control(0, 0, 8, 0) },
		func() { s.Control(0, 9, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestGigabitConfig(t *testing.T) {
	g := Gigabit()
	if g.BandwidthBytesPerSec <= Default100Mb().BandwidthBytesPerSec*5 {
		t.Fatal("gigabit should be much faster than 100Mb")
	}
	if g.Latency >= Default100Mb().Latency {
		t.Fatal("gigabit latency should be lower")
	}
}
