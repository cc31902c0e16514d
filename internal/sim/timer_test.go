package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// timerScript runs one random interleaving of plain events and timer
// deadlines on a fresh engine and logs everything that fires, in order.
// With useTimer the deadlines are Resets of one Timer per slot;
// otherwise every deadline is its own Schedule and a deadline that a
// later one superseded is skipped when it fires. Callbacks sometimes
// re-arm their own slot. With monotone, a slot's deadlines never move
// earlier; check, if non-nil, runs after every driver step with the
// number of plain events still pending.
func timerScript(seed int64, useTimer, monotone bool, check func(e *Engine, plain int)) []string {
	const slots = 3
	g := NewGroup(1, Second)
	defer g.Close()
	e := g.Engine(0)
	rng := rand.New(rand.NewSource(seed))
	var log []string
	last := make([]Time, slots)
	var arm func(i int, at Time)
	deadline := func(i int, d int) Time {
		at := e.Now() + Time(d)
		if monotone {
			at = max(at, last[i])
		}
		last[i] = at
		return at
	}
	fired := func(i int) {
		log = append(log, fmt.Sprintf("%d timer%d", e.Now(), i))
		if rng.Intn(4) == 0 {
			arm(i, deadline(i, rng.Intn(60)))
		}
	}
	if useTimer {
		ts := make([]*Timer, slots)
		for i := range ts {
			ts[i] = e.NewTimer(func() { fired(i) })
		}
		arm = func(i int, at Time) { ts[i].Reset(at) }
	} else {
		gen := make([]int, slots)
		arm = func(i int, at Time) {
			gen[i]++
			g := gen[i]
			e.Schedule(at, func() {
				if gen[i] == g {
					fired(i)
				}
			})
		}
	}
	plain, open, steps := 0, 0, 0
	var step func()
	step = func() {
		for k := rng.Intn(5); k > 0; k-- {
			if rng.Intn(3) == 0 {
				id := plain
				plain++
				open++
				e.Schedule(e.Now()+Time(rng.Intn(30)), func() {
					open--
					log = append(log, fmt.Sprintf("%d plain%d", e.Now(), id))
				})
				continue
			}
			i := rng.Intn(slots)
			arm(i, deadline(i, rng.Intn(100)))
		}
		if steps++; steps < 300 {
			e.Schedule(e.Now()+Time(rng.Intn(15)), step)
		}
		if check != nil {
			check(e, open)
		}
	}
	e.Schedule(0, step)
	if _, err := g.Run(0); err != nil {
		panic(err)
	}
	return log
}

// A Timer fires exactly where one Schedule per Reset would, with
// superseded deadlines skipped: same times, same order against plain
// events at equal times, whether deadlines move later or earlier.
func TestTimerMatchesSchedulePerReset(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		for _, monotone := range []bool{true, false} {
			want := timerScript(seed, false, monotone, nil)
			got := timerScript(seed, true, monotone, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d monotone %v: timer log differs from the schedule-per-reset reference\n got %v\nwant %v",
					seed, monotone, got, want)
			}
		}
	}
}

// While deadlines only move later, each timer holds at most one queue
// entry: beside the plain events, three timers and the driver's next
// step never need more than four.
func TestTimerPendingBound(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		worst := 0
		timerScript(seed, true, true, func(e *Engine, plain int) { worst = max(worst, e.Pending()-plain) })
		if worst > 4 {
			t.Fatalf("seed %d: %d pending non-plain events, want at most 4", seed, worst)
		}
	}
}

// Resetting into the past panics with the same message as scheduling
// there.
func TestTimerResetPastPanics(t *testing.T) {
	g, e := oneShard(t)
	tm := e.NewTimer(func() {})
	catch := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	var viaSchedule, viaReset any
	e.Schedule(100, func() {
		viaSchedule = catch(func() { e.Schedule(50, func() {}) })
		viaReset = catch(func() { tm.Reset(50) })
	})
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if viaReset == nil || viaReset != viaSchedule {
		t.Fatalf("Reset into the past panicked with %v, want %v", viaReset, viaSchedule)
	}
}

// An armed timer is a pending event, not a blocked waiter: it keeps Run
// going until it fires, and a deadlock report counts only the parked
// process.
func TestTimerNotBlocked(t *testing.T) {
	g, e := oneShard(t)
	var firedAt Time = -1
	tm := e.NewTimer(func() { firedAt = e.Now() })
	tm.Reset(50)
	if e.Blocked() != 0 {
		t.Fatalf("armed timer counts as blocked: Blocked = %d", e.Blocked())
	}
	c := NewCond(e)
	e.Spawn("waiter", func(p *Proc) { c.Wait(p) })
	end, err := g.Run(0)
	if err == nil || e.Blocked() != 1 {
		t.Fatalf("err = %v, Blocked = %d; want a deadlock with 1 blocked", err, e.Blocked())
	}
	if firedAt != 50 || end != 50 {
		t.Fatalf("timer fired at %v, run ended at %v; want both 50", firedAt, end)
	}
}

// Counters count every dispatched entry, timer re-queues included, and
// the queue's high-water mark.
func TestEngineCounters(t *testing.T) {
	g, e := oneShard(t)
	tm := e.NewTimer(func() {})
	tm.Reset(10)
	tm.Reset(20) // the entry at 10 re-queues at 20
	e.Schedule(5, func() {})
	e.Schedule(5, func() {})
	if got, want := e.Counters(), (Counters{Events: 0, HeapPeak: 3}); got != want {
		t.Fatalf("before Run: %+v, want %+v", got, want)
	}
	if _, err := g.Run(0); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Counters(), (Counters{Events: 4, HeapPeak: 3}); got != want {
		t.Fatalf("after Run: %+v, want %+v", got, want)
	}
}
