package sim

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// goldenKernel pins, per shard count, the digest of kernelScript's
// complete output: every node's log, every shard's log with the
// engine's sequence counter, dispatch count and queue length at each
// logged point, and the final Counters. A kernel change that moves one
// event, one sequence number or the queue's high-water mark anywhere
// shows up here.
var goldenKernel = map[int]string{
	1: "ac118fd0baf06608065d095bc386135183de89bd12d49ebcaab00951b2731645",
	2: "7122dc4825f2d1190dac35df5ab0671a1fe67fe9b466fd80e0d1a9677bf6e256",
	4: "ea74b51007dad06f2d3f6f4eb53e284281ae9e8ef0f3ec7acdd35ecd7c9b61f4",
}

// kernelScript runs four nodes on k shards (node i on shard i*k/4)
// under a 10 µs lookahead. Each node has a sleeper process, a waiter
// parked on a Cond and a Timer, and walks the kernel's tie cases before
// a pseudo-random phase:
//   - a wake exactly on a window horizon: every node starts at 0, so the
//     first window is [0, look) and a Sleep(look) lands on its end; a
//     later SleepUntil lands on the time of a coordinator global;
//   - a wake at the same time as a cross-shard arrival;
//   - a Timer whose queued entry sits at the wake time, before and after
//     the entry re-queues;
//   - Sleep(0) behind a same-time event, and alone;
//   - a Cond wake racing a sleeper, from the sleeper and from a callback.
//
// It returns the node logs (a simulation property, equal at every k),
// then every shard log and the run summary (which depend on k).
func kernelScript(k int) (nodes [][]string, rest []string) {
	const n = 4
	const look = 10 * Microsecond
	const global = Time(20 * look)
	g := NewGroup(k, look)
	defer g.Close()
	shardOf := func(node int) int { return node * k / n }
	nodes = make([][]string, n)
	shards := make([][]string, k)
	rec := func(node int, what string) {
		e := g.Engine(shardOf(node))
		nodes[node] = append(nodes[node], fmt.Sprintf("%d %s", e.now, what))
		s := shardOf(node)
		shards[s] = append(shards[s], fmt.Sprintf("n%d %d %s seq=%d ev=%d pend=%d", node, e.now, what, e.seq, e.events, e.queue.Len()))
	}
	sent := make([]uint64, n)
	send := func(from, to int, t Time, what string) {
		sent[from]++
		fn := func() { rec(to, fmt.Sprintf("arrival %s from n%d", what, from)) }
		if shardOf(to) != shardOf(from) {
			g.Post(shardOf(to), t, from, sent[from], fn)
		} else {
			g.Engine(shardOf(from)).PostArrival(t, from, sent[from], fn)
		}
	}
	for i := 0; i < n; i++ {
		e := g.Engine(shardOf(i))
		c := NewCond(e)
		tm := e.NewTimer(func() { rec(i, "timer") })
		e.Spawn(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			for {
				v := c.Wait(p)
				rec(i, fmt.Sprintf("woken %v", v))
				if v == "stop" {
					return
				}
				p.Sleep(Microsecond)
				rec(i, "waiter slept")
			}
		})
		e.Spawn(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
			x := uint64(i+1) * 0x9E3779B97F4A7C15
			next := func(m uint64) uint64 {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return x % m
			}
			send(i, (i+1)%n, Time(4*look), "tie")
			p.Sleep(look)
			rec(i, "horizon wake")
			p.SleepUntil(Time(4 * look))
			rec(i, "wake before arrival")

			now := p.Now()
			tm.Reset(now.Add(3 * Microsecond))
			tm.Reset(now.Add(5 * Microsecond))
			p.Sleep(3 * Microsecond)
			rec(i, "wake behind timer entry")
			p.Sleep(2 * Microsecond)
			rec(i, "wake behind timer deadline")

			e.Schedule(p.Now(), func() { rec(i, "same-time event") })
			p.Sleep(0)
			rec(i, "sleep0 behind event")
			p.Sleep(0)
			rec(i, "lone sleep0")

			c.Signal("a")
			p.Sleep(0)
			rec(i, "sleep0 behind signal")
			e.Schedule(p.Now().Add(2*Microsecond), func() {
				c.Signal("b")
				rec(i, "signal b")
			})
			p.Sleep(2 * Microsecond)
			rec(i, "wake beside signal")

			p.SleepUntil(global)
			rec(i, "wake at global")

			for s := 0; s < 150; s++ {
				switch next(8) {
				case 0:
					p.Sleep(0)
				case 1:
					e.Schedule(p.Now().Add(Duration(next(3))*Microsecond), func() { rec(i, "event") })
					p.Sleep(Duration(next(3)) * Microsecond)
				case 2:
					send(i, (i+1+int(next(n-1)))%n, p.Now().Add(look+Duration(next(4))*Microsecond), fmt.Sprint(s))
				case 3:
					tm.Reset(p.Now().Add(Duration(next(4)) * Microsecond))
				case 4:
					c.Signal(s)
				case 5:
					p.Sleep(look - Duration(p.Now())%look)
				default:
					p.Sleep(Duration(next(5)) * Microsecond)
				}
				rec(i, fmt.Sprintf("step %d", s))
			}
			for c.Len() == 0 {
				p.Sleep(Microsecond)
			}
			c.Signal("stop")
		})
	}
	g.ScheduleGlobal(global, 0, func() {
		for i := range nodes {
			rec(i, "global")
		}
	})
	mid, err := g.Run(global + Time(15*look))
	if err != nil {
		panic(err)
	}
	end, err := g.Run(0)
	if err != nil {
		panic(err)
	}
	for s, l := range shards {
		c := g.Engine(s).Counters()
		rest = append(rest, l...)
		rest = append(rest, fmt.Sprintf("shard %d events=%d heap_peak=%d", s, c.Events, c.HeapPeak))
	}
	return nodes, append(rest, fmt.Sprintf("mid %d end %d now %d", mid, end, g.Now()))
}

// TestKernelGoldenDigest pins the kernel's dispatch order, sequence
// numbers and work counts on kernelScript at one, two and four shards,
// and checks that every node sees the same log at each shard count.
func TestKernelGoldenDigest(t *testing.T) {
	want, _ := kernelScript(1)
	for _, k := range []int{1, 2, 4} {
		nodes, rest := kernelScript(k)
		if !reflect.DeepEqual(nodes, want) {
			t.Errorf("%d shards: node logs differ from 1 shard", k)
		}
		var b strings.Builder
		for _, l := range nodes {
			b.WriteString(strings.Join(l, "\n"))
			b.WriteString("\n--\n")
		}
		b.WriteString(strings.Join(rest, "\n"))
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(b.String()))); got != goldenKernel[k] {
			t.Errorf("%d shards: digest %s, want %s", k, got, goldenKernel[k])
		}
	}
}
