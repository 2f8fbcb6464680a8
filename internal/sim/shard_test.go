package sim

import (
	"strings"
	"testing"
)

// TestShardSetWindows drives a toy cross-shard model: two nodes play
// ping-pong through a barrier-drained ledger, exactly the discipline
// the fabric layer uses, on one shard (the kernel's own windows) and on
// two. The run must terminate, deliver every message, report the final
// time of the last delivery, and open the same windows and run the
// same barriers at both shard counts: one window per message and one
// more for the kick-off, one barrier per send.
func TestShardSetWindows(t *testing.T) {
	const lookahead = 10
	for _, shards := range []int{1, 2} {
		ss := NewShardSet(shards, EngineCalendar)
		ss.SetLookahead(lookahead)
		kernelOf := func(node int) *Kernel { return ss.Kernel(node % shards) }

		type msg struct {
			at   Time // send time
			dst  int
			hops int // replies left after this delivery
		}
		ledger := make([][]msg, 2) // one slice per source node
		delivered := 0
		var lastAt Time

		ss.OnBarrier(func(edge Time) {
			for src := 0; src < 2; src++ {
				for _, m := range ledger[src] {
					m := m
					deliver := m.at + lookahead // exactly one lookahead out
					if deliver <= edge {
						t.Fatalf("delivery at %d within window edge %d", deliver, edge)
					}
					kernelOf(m.dst).At(deliver, func() {
						delivered++
						if m.hops > 0 {
							k := kernelOf(m.dst)
							ledger[m.dst] = append(ledger[m.dst],
								msg{at: k.Now(), dst: 1 - m.dst, hops: m.hops - 1})
						}
					})
					if deliver > lastAt {
						lastAt = deliver
					}
				}
				ledger[src] = ledger[src][:0]
			}
		}, func() bool { return len(ledger[0])+len(ledger[1]) > 0 })

		// Kick off: node 0 posts the first message at t=3, 6 replies follow.
		kernelOf(0).At(3, func() {
			ledger[0] = append(ledger[0], msg{at: kernelOf(0).Now(), dst: 1, hops: 6})
		})

		end := ss.Run()
		if delivered != 7 {
			t.Fatalf("shards=%d: delivered %d messages, want 7", shards, delivered)
		}
		if end != lastAt {
			t.Fatalf("shards=%d: final time %d, want %d", shards, end, lastAt)
		}
		if ss.Pending() != 0 {
			t.Fatalf("shards=%d: %d events still pending after Run", shards, ss.Pending())
		}
		if ss.Windows() != 8 || ss.Barriers() != 7 {
			t.Errorf("shards=%d: %d windows and %d barriers, want 8 and 7", shards, ss.Windows(), ss.Barriers())
		}
	}
}

// TestShardSetRunEmpty runs a set with nothing pending, so no window
// executes and the workers are retired as soon as they start: each must
// exit on its own start channel, not read a retired one.
func TestShardSetRunEmpty(t *testing.T) {
	ss := NewShardSet(4, EngineCalendar)
	ss.SetLookahead(5)
	for i := 0; i < 1000; i++ {
		if end := ss.Run(); end != 0 {
			t.Fatalf("run %d of an empty set ended at %d, want 0", i, end)
		}
	}
}

// TestShardSetPanic checks that a model panic inside a window is
// re-raised deterministically, labeled with the lowest panicking
// shard.
func TestShardSetPanic(t *testing.T) {
	ss := NewShardSet(3, EngineCalendar)
	ss.SetLookahead(5)
	for i := 0; i < 3; i++ {
		i := i
		ss.Kernel(i).At(1, func() {
			if i >= 1 {
				panic("boom")
			}
		})
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		msg, _ := r.(string)
		if !strings.HasPrefix(msg, "sim: shard 1:") {
			t.Fatalf("panic %q, want it attributed to shard 1", msg)
		}
	}()
	ss.Run()
}

// TestShardSetMatchesKernel runs the same independent per-shard
// workload on a ShardSet and on plain kernels and checks event counts
// and final times agree.
func TestShardSetMatchesKernel(t *testing.T) {
	build := func(k *Kernel, seed Time) {
		var step func()
		n := 0
		step = func() {
			n++
			if n < 50 {
				k.After(seed, step)
			}
		}
		k.At(seed, step)
	}
	ss := NewShardSet(2, EngineHeap)
	ss.SetLookahead(7)
	build(ss.Kernel(0), 3)
	build(ss.Kernel(1), 5)
	end := ss.Run()

	k0, k1 := NewKernelWith(EngineHeap), NewKernelWith(EngineHeap)
	build(k0, 3)
	build(k1, 5)
	e0, e1 := k0.Run(), k1.Run()
	want := e0
	if e1 > want {
		want = e1
	}
	if end != want {
		t.Fatalf("sharded end %d, sequential end %d", end, want)
	}
	if ss.Executed() != k0.Executed()+k1.Executed() {
		t.Fatalf("sharded executed %d, sequential %d", ss.Executed(), k0.Executed()+k1.Executed())
	}
}
