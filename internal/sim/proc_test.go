package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestProcAdvanceAndSync(t *testing.T) {
	k := NewKernel()
	var mid, end Time
	k.Spawn("p", func(p *Proc) {
		p.Advance(100)
		p.Sync()
		mid = k.Now()
		p.Advance(50)
		p.Sync()
		end = k.Now()
	})
	k.Run()
	if mid != 100 || end != 150 {
		t.Fatalf("sync times = %d, %d; want 100, 150", mid, end)
	}
}

func TestProcSyncExecutesInterveningEvents(t *testing.T) {
	k := NewKernel()
	var order []string
	k.At(50, func() { order = append(order, "event@50") })
	k.Spawn("p", func(p *Proc) {
		p.Advance(100)
		p.Sync()
		order = append(order, "proc@100")
	})
	k.Run()
	if len(order) != 2 || order[0] != "event@50" || order[1] != "proc@100" {
		t.Fatalf("order = %v", order)
	}
}

func TestProcBlockWake(t *testing.T) {
	k := NewKernel()
	var blockedFor, resumedAt Time
	p := k.Spawn("sleeper", func(p *Proc) {
		p.Advance(10)
		blockedFor = p.Block()
		resumedAt = k.Now()
	})
	k.At(500, func() { p.Wake() })
	k.Run()
	if resumedAt != 500 {
		t.Fatalf("resumed at %d, want 500", resumedAt)
	}
	if blockedFor != 490 {
		t.Fatalf("Block returned %d, want 490", blockedFor)
	}
	if p.BlockedTime != 490 {
		t.Fatalf("BlockedTime = %d, want 490", p.BlockedTime)
	}
}

func TestProcWakeBeforeBlockIsBuffered(t *testing.T) {
	// A reply that arrives while the proc is still syncing toward its
	// block point must not be lost.
	k := NewKernel()
	var blockedFor Time = -1
	p := k.Spawn("p", func(p *Proc) {
		p.Advance(1000) // runs ahead; the wake event fires at t=10
		blockedFor = p.Block()
	})
	k.At(10, func() { p.Wake() })
	k.Run()
	if blockedFor != 0 {
		t.Fatalf("Block returned %d, want 0 (wake token buffered)", blockedFor)
	}
	if !p.Finished() {
		t.Fatal("proc did not finish")
	}
}

func TestProcWakeAtClampsToProcClock(t *testing.T) {
	k := NewKernel()
	var resumedAt Time
	p := k.Spawn("p", func(p *Proc) {
		p.Block()
		resumedAt = k.Now()
	})
	// Wake stamped in the past relative to kernel time at the wake event.
	k.At(100, func() { p.WakeAt(5) })
	k.Run()
	if resumedAt != 100 {
		t.Fatalf("resumed at %d, want clamp to 100", resumedAt)
	}
}

func TestProcPenaltyFoldsAtSync(t *testing.T) {
	k := NewKernel()
	var end Time
	p := k.Spawn("victim", func(p *Proc) {
		p.Advance(1000)
		p.Sync()
		end = k.Now()
	})
	// An interrupt at t=200 steals 40 cycles from the CPU; the victim's
	// 1000-cycle computation must finish at 1040.
	k.At(200, func() { p.AddPenalty(40) })
	k.Run()
	if end != 1040 {
		t.Fatalf("computation finished at %d, want 1040", end)
	}
	if p.PenaltyTime != 40 {
		t.Fatalf("PenaltyTime = %d, want 40", p.PenaltyTime)
	}
}

func TestProcWaitUntil(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Spawn("p", func(p *Proc) {
		p.WaitUntil(300)
		at1 = k.Now()
		p.WaitUntil(100) // already past: no-op
		at2 = k.Now()
	})
	k.Run()
	if at1 != 300 || at2 != 300 {
		t.Fatalf("WaitUntil times = %d, %d; want 300, 300", at1, at2)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for _, n := range []string{"a", "b"} {
			n := n
			step := Time(10)
			if n == "b" {
				step = 15
			}
			k.Spawn(n, func(p *Proc) {
				for i := 0; i < 4; i++ {
					p.Advance(step)
					p.Sync()
					order = append(order, n)
				}
			})
		}
		k.Run()
		return order
	}
	a, b := run(), run()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("runs produced %d and %d steps, want 8", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic interleaving: %v vs %v", a, b)
		}
	}
	// a syncs at 10,20,30,40; b at 15,30,45,60. At t=30 b wins the tie:
	// b scheduled its resume event at t=15, before a scheduled its at 20.
	want := []string{"a", "b", "a", "b", "a", "a", "b", "b"}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("interleaving = %v, want %v", a, want)
		}
	}
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel()
	var started Time = -1
	k.SpawnAt("late", 777, func(p *Proc) { started = k.Now() })
	k.Run()
	if started != 777 {
		t.Fatalf("proc started at %d, want 777", started)
	}
}

func TestDrainUnblocksParkedProcs(t *testing.T) {
	k := NewKernel()
	finished := false
	p := k.Spawn("stuck", func(p *Proc) {
		p.Block() // nobody will wake it
		finished = true
	})
	k.At(100, func() { k.Stop() })
	k.Run()
	if p.Finished() {
		t.Fatal("proc should still be blocked before drain")
	}
	k.Drain()
	if finished {
		t.Fatal("killed proc must not run its continuation")
	}
	if !p.Finished() {
		t.Fatal("drained proc should be marked finished")
	}
}

func TestProcBlockedAccountingAcrossMultipleBlocks(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Block()
		}
	})
	k.At(10, func() { p.Wake() })
	k.At(30, func() { p.Wake() })
	k.At(60, func() { p.Wake() })
	k.Run()
	if p.BlockedTime != 60 {
		t.Fatalf("BlockedTime = %d, want 60 (10+20+30)", p.BlockedTime)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	k := NewKernel()
	panicked := false
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		p.Advance(-1)
	})
	k.Run()
	if !panicked {
		t.Fatal("Advance(-1) did not panic")
	}
}

// breakInvariant is the model helper whose panic
// TestProcPanicSurfacesFromRun expects to find on the reported stack.
func breakInvariant(p *Proc) {
	panic(fmt.Sprintf("invariant broken at t=%d", p.Local()))
}

// TestProcPanicSurfacesFromRun checks that a panic in a process body
// reaches the caller of Kernel.Run or ShardSet.Run, naming the process,
// the panic value and the panicking function, and that runtime.Goexit
// in a body (what t.FailNow does) ends the goroutine that called Run
// instead of hanging it.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	runners := []struct {
		name   string
		prefix string
		run    func(body func(*Proc))
	}{
		{"kernel", "sim: proc crasher panicked: ", func(body func(*Proc)) {
			k := NewKernel()
			k.Spawn("crasher", body)
			k.Run()
		}},
		{"shards", "sim: shard 1: sim: proc crasher panicked: ", func(body func(*Proc)) {
			ss := NewShardSet(2, EngineCalendar)
			ss.SetLookahead(5)
			ss.Kernel(0).Spawn("bystander", func(p *Proc) {
				p.Advance(1)
				p.Sync()
			})
			ss.Kernel(1).Spawn("crasher", body)
			ss.Run()
		}},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			t.Run("panic", func(t *testing.T) {
				var got any
				func() {
					defer func() { got = recover() }()
					r.run(func(p *Proc) {
						p.Advance(10)
						p.Sync()
						breakInvariant(p)
					})
				}()
				msg := fmt.Sprint(got)
				if !strings.HasPrefix(msg, r.prefix+"invariant broken at t=10") {
					t.Fatalf("recovered %q, want prefix %q", msg, r.prefix)
				}
				if !strings.Contains(msg, "sim.breakInvariant(") {
					t.Fatalf("recovered text lacks the panicking function:\n%s", msg)
				}
			})
			t.Run("goexit", func(t *testing.T) {
				returned := make(chan bool)
				go func() {
					ok := false
					defer func() { returned <- ok }()
					r.run(func(p *Proc) {
						p.Advance(10)
						p.Sync()
						runtime.Goexit()
					})
					ok = true
				}()
				if <-returned {
					t.Fatal("Run returned normally after a process body called runtime.Goexit")
				}
			})
		})
	}
}

// TestDrainReleasesGoroutines parks 100 processes in Block and checks
// that Drain unwinds every one before it returns: their deferred calls
// have run and their goroutines are gone, with no sleep or retry. Spawn
// starts no goroutine (a process's coroutine is created when it starts,
// here at t=10), so the baseline is taken at t=0: on a ShardSet it then
// counts the shard workers, which Run retires as it returns without
// waiting for them to exit. It runs on a plain kernel, on a kernel with
// a window and on two shards.
func TestDrainReleasesGoroutines(t *testing.T) {
	for _, c := range []struct {
		name   string
		shards int
		window bool
	}{{"shards=0", 0, false}, {"shards=0+window", 0, true}, {"shards=2", 2, false}} {
		shards := c.shards
		t.Run(c.name, func(t *testing.T) {
			var kernels []*Kernel
			var run, drain func()
			if shards == 0 {
				// With a window the kernel runs its own windows, as
				// on a fabric (atm.New installs one).
				k := NewKernel()
				if c.window {
					k.SetLookahead(5)
					k.OnBarrier(func(Time) {}, func() bool { return true })
				}
				kernels = []*Kernel{k}
				run, drain = func() { k.Run() }, k.Drain
			} else {
				ss := NewShardSet(shards, EngineCalendar)
				ss.SetLookahead(5)
				for i := 0; i < shards; i++ {
					kernels = append(kernels, ss.Kernel(i))
				}
				run, drain = func() { ss.Run() }, ss.Drain
			}
			before := -1
			kernels[0].At(0, func() { before = runtime.NumGoroutine() })
			unwound := 0
			var procs []*Proc
			for i := 0; i < 100; i++ {
				procs = append(procs, kernels[i%len(kernels)].SpawnAt("parked", 10, func(p *Proc) {
					defer func() { unwound++ }()
					p.Advance(Time(i))
					p.Block() // nobody wakes it
				}))
			}
			run()
			for _, p := range procs {
				if !p.Blocked() {
					t.Fatal("process not parked in Block after Run")
				}
			}
			drain()
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%d goroutines after Drain, %d before any process started", after, before)
			}
			if unwound != 100 {
				t.Fatalf("%d of 100 processes unwound by Drain", unwound)
			}
		})
	}
}

// pushCounter counts the events a kernel queues, so a test can tell a
// resume run in place (nothing queued) from a queued one.
type pushCounter struct {
	scheduler
	pushes int
}

func (c *pushCounter) push(e event) {
	c.pushes++
	c.scheduler.push(e)
}

// windowedKernel returns a kernel that will run windows of width w once
// a barrier is registered, and the count of events it queues.
func windowedKernel(w Time) (*Kernel, *int) {
	k := NewKernel()
	c := &pushCounter{scheduler: k.q}
	k.q = c
	k.SetLookahead(w)
	return k, &c.pushes
}

// windowedWalks runs one process that leaves walks delivering at the
// given times in its kernel's ledger and then syncs from 0 to 250,
// past the window edge at 99, and reports the order of events.
func windowedWalks(deliveries ...Time) string {
	k, pushes := windowedKernel(100)
	var ledger []Time
	var order []string
	k.OnBarrier(func(Time) {
		for _, at := range ledger {
			k.At(at, func() { order = append(order, fmt.Sprintf("delivery@%d", k.Now())) })
		}
		ledger = ledger[:0]
	}, func() bool { return len(ledger) > 0 })
	k.Spawn("p", func(p *Proc) {
		ledger = append(ledger, deliveries...)
		p.Advance(250)
		p.Sync()
		order = append(order, fmt.Sprintf("proc@%d", k.Now()))
	})
	end := k.Run()
	return fmt.Sprintf("%v end=%d events=%d pushes=%d", order, end, k.Executed(), *pushes)
}

// TestSyncResumeInPlace pins the edge cases of Sync's in-place resume:
// the kernel may run a process's own resume without queuing it only
// when that event would have been the next one popped anyway, so every
// case below observes exactly what the queued resume produces. On a
// kernel with a barrier that includes the crossing into the next
// window, which the queued-event count tells apart.
func TestSyncResumeInPlace(t *testing.T) {
	cases := []struct {
		name string
		run  func() string
		want string
	}{
		{"lone process under Run", func() string {
			k := NewKernel()
			k.Spawn("p", func(p *Proc) {
				for i := 0; i < 1000; i++ {
					p.Advance(1)
					p.Sync()
				}
			})
			end := k.Run()
			return fmt.Sprintf("end=%d events=%d", end, k.Executed())
		}, "end=1000 events=1001"},

		{"event pending at the target time runs first", func() string {
			k := NewKernel()
			var order []string
			k.At(10, func() { order = append(order, fmt.Sprintf("event@%d", k.Now())) })
			k.Spawn("p", func(p *Proc) {
				p.Advance(10)
				p.Sync()
				order = append(order, fmt.Sprintf("proc@%d", k.Now()))
			})
			k.Run()
			return fmt.Sprintf("%v events=%d", order, k.Executed())
		}, "[event@10 proc@10] events=3"},

		{"RunUntil horizon", func() string {
			k := NewKernel()
			var resumed []Time
			k.Spawn("p", func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Advance(100)
					p.Sync()
					resumed = append(resumed, k.Now())
				}
			})
			k.RunUntil(150)
			first := fmt.Sprintf("now=%d last=%d resumed=%v events=%d",
				k.Now(), k.LastEventAt(), resumed, k.Executed())
			end := k.Run()
			return fmt.Sprintf("%s; end=%d events=%d", first, end, k.Executed())
		}, "now=150 last=100 resumed=[100] events=2; end=300 events=4"},

		{"pending Stop", func() string {
			k := NewKernel()
			steps := 0
			k.Spawn("p", func(p *Proc) {
				for i := 0; i < 5; i++ {
					if i == 2 {
						k.Stop()
					}
					p.Advance(10)
					p.Sync()
					steps++
				}
			})
			end := k.Run()
			first := fmt.Sprintf("end=%d steps=%d events=%d", end, steps, k.Executed())
			end = k.Run()
			return fmt.Sprintf("%s; end=%d steps=%d events=%d", first, end, steps, k.Executed())
		}, "end=20 steps=2 events=3; end=50 steps=5 events=6"},

		{"event limit", func() string {
			k := NewKernel()
			k.SetEventLimit(50)
			k.Spawn("p", func(p *Proc) {
				for i := 0; i < 100; i++ {
					p.Advance(1)
					p.Sync()
				}
			})
			defer k.Drain()
			var got any
			func() {
				defer func() { got = recover() }()
				k.Run()
			}()
			return fmt.Sprintf("panic=%#v events=%d", got, k.Executed())
		}, `panic="sim: event limit 50 exceeded at t=50" events=51`},

		{"Drain unwinds a deferred Sync", func() string {
			k := NewKernel()
			after := false
			k.Spawn("p", func(p *Proc) {
				defer func() {
					p.Advance(10)
					p.Sync()
					after = true
				}()
				p.Block()
			})
			k.Run()
			k.Drain()
			return fmt.Sprintf("now=%d events=%d after=%v", k.Now(), k.Executed(), after)
		}, "now=0 events=1 after=false"},

		{"windowed kernel crosses an idle barrier in place", func() string {
			k, pushes := windowedKernel(100)
			barriers := 0
			k.OnBarrier(func(Time) { barriers++ }, func() bool { return false })
			var resumed []Time
			k.Spawn("p", func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Advance(250)
					p.Sync()
					resumed = append(resumed, k.Now())
				}
			})
			end := k.Run()
			return fmt.Sprintf("resumed=%v end=%d events=%d pushes=%d barriers=%d",
				resumed, end, k.Executed(), *pushes, barriers)
		}, "resumed=[250 500 750] end=750 events=4 pushes=1 barriers=0"},

		{"windowed kernel yields to a walk that lands first", func() string {
			return windowedWalks(150, 250)
		}, "[delivery@150 proc@250 delivery@250] end=250 events=4 pushes=4"},

		{"windowed kernel crosses past a walk that lands with it", func() string {
			return windowedWalks(250)
		}, "[proc@250 delivery@250] end=250 events=3 pushes=2"},

		{"pending Stop on a windowed kernel", func() string {
			k, _ := windowedKernel(5)
			k.OnBarrier(func(Time) {}, func() bool { return false })
			steps := 0
			k.Spawn("p", func(p *Proc) {
				for i := 0; i < 5; i++ {
					if i == 2 {
						k.Stop()
					}
					p.Advance(10)
					p.Sync()
					steps++
				}
			})
			end := k.Run()
			first := fmt.Sprintf("end=%d steps=%d events=%d", end, steps, k.Executed())
			end = k.Run()
			return fmt.Sprintf("%s; end=%d steps=%d events=%d", first, end, steps, k.Executed())
		}, "end=20 steps=2 events=3; end=50 steps=5 events=6"},

		{"event limit on a windowed kernel", func() string {
			k, _ := windowedKernel(5)
			k.OnBarrier(func(Time) {}, func() bool { return false })
			k.SetEventLimit(50)
			k.Spawn("p", func(p *Proc) {
				for i := 0; i < 100; i++ {
					p.Advance(10)
					p.Sync()
				}
			})
			defer k.Drain()
			var got any
			func() {
				defer func() { got = recover() }()
				k.Run()
			}()
			return fmt.Sprintf("panic=%#v events=%d", got, k.Executed())
		}, `panic="sim: event limit 50 exceeded at t=500" events=51`},

		{"Drain unwinds a deferred Sync on a windowed kernel", func() string {
			k, pushes := windowedKernel(100)
			k.OnBarrier(func(Time) {}, func() bool { return false })
			after := false
			k.Spawn("p", func(p *Proc) {
				defer func() {
					p.Advance(1000)
					p.Sync()
					after = true
				}()
				p.Block()
			})
			k.Run()
			k.Drain()
			return fmt.Sprintf("now=%d events=%d pushes=%d after=%v", k.Now(), k.Executed(), *pushes, after)
		}, "now=0 events=1 pushes=2 after=false"},

		{"shard window edge", func() string {
			ss := NewShardSet(2, EngineCalendar)
			ss.SetLookahead(100)
			window := 0
			ss.OnBarrier(func(Time) { window++ }, func() bool { return true })
			var got [2]string
			for i, target := range []Time{250, 50} {
				k := ss.Kernel(i)
				k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
					p.Advance(target)
					p.Sync()
					got[i] = fmt.Sprintf("p%d@%d in window %d", i, k.Now(), window)
				})
			}
			end := ss.Run()
			return fmt.Sprintf("%s; %s; end=%d events=%d", got[0], got[1], end, ss.Executed())
		}, "p0@250 in window 2; p1@50 in window 1; end=250 events=4"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(); got != c.want {
				t.Fatalf("got  %s\nwant %s", got, c.want)
			}
		})
	}
}
