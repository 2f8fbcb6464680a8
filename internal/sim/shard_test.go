package sim

import (
	"strings"
	"testing"
)

// TestShardSetWindows drives a toy cross-shard model: two shards play
// ping-pong through a barrier-drained ledger, exactly the discipline
// the fabric layer uses. The run must terminate, deliver every
// message, and report the final time of the last delivery.
func TestShardSetWindows(t *testing.T) {
	const lookahead = 10
	ss := NewShardSet(2, EngineCalendar)
	ss.SetLookahead(lookahead)

	type msg struct {
		at   Time // send time
		dst  int
		hops int // replies left after this delivery
	}
	ledger := make([][]msg, 2) // one slice per source shard
	delivered := 0
	var lastAt Time

	ss.OnBarrier(func() {
		for src := 0; src < 2; src++ {
			for _, m := range ledger[src] {
				m := m
				deliver := m.at + lookahead // exactly one lookahead out
				if deliver <= ss.WindowEdge() {
					t.Fatalf("delivery at %d within window edge %d", deliver, ss.WindowEdge())
				}
				ss.Kernel(m.dst).At(deliver, func() {
					delivered++
					if m.hops > 0 {
						k := ss.Kernel(m.dst)
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
	})

	// Kick off: shard 0 posts the first message at t=3, 6 replies follow.
	ss.Kernel(0).At(3, func() {
		ledger[0] = append(ledger[0], msg{at: ss.Kernel(0).Now(), dst: 1, hops: 6})
	})

	end := ss.Run()
	if delivered != 7 {
		t.Fatalf("delivered %d messages, want 7", delivered)
	}
	if end != lastAt {
		t.Fatalf("final time %d, want %d", end, lastAt)
	}
	if ss.Pending() != 0 {
		t.Fatalf("%d events still pending after Run", ss.Pending())
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
