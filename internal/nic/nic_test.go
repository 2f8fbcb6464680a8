package nic

import (
	"fmt"
	"strings"
	"testing"

	"cni/internal/atm"
	"cni/internal/config"
	"cni/internal/memsys"
	"cni/internal/sim"
)

// rig is a two-node test cluster.
type rig struct {
	k      *sim.Kernel
	cfg    config.Config
	net    *atm.Network
	mem    [2]*memsys.Hierarchy
	boards [2]*Board
}

func newRig(t *testing.T, kind config.NICKind, tweak func(*config.Config)) *rig {
	t.Helper()
	r := &rig{k: sim.NewKernel(), cfg: config.ForNIC(kind)}
	if tweak != nil {
		tweak(&r.cfg)
	}
	net, err := atm.New(r.k, &r.cfg, 2)
	if err != nil {
		panic(err)
	}
	r.net = net
	for i := 0; i < 2; i++ {
		r.mem[i] = memsys.New(&r.cfg)
		r.boards[i] = NewBoard(r.k, &r.cfg, i, r.net, r.mem[i])
		r.boards[i].MapPages(0, 1<<20)
	}
	return r
}

const (
	opData  = 1
	opReply = 2
)

func TestCNISecondSendOfSameBufferSkipsDMA(t *testing.T) {
	r := newRig(t, config.NICCNI, nil)
	var arrivals []sim.Time
	r.boards[1].Register(opData, true, func(at sim.Time, m *Message) {
		arrivals = append(arrivals, at)
	})
	page := uint64(0x10000)
	r.k.Spawn("app", func(p *sim.Proc) {
		m := &Message{From: 0, To: 1, Op: opData, Size: 4096, VAddr: page, CacheTx: true}
		r.boards[0].Send(p, m)
		p.Advance(1_000_000)
		p.Sync()
		m2 := &Message{From: 0, To: 1, Op: opData, Size: 4096, VAddr: page, CacheTx: true}
		r.boards[0].Send(p, m2)
	})
	r.k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("%d arrivals, want 2", len(arrivals))
	}
	if r.boards[0].Stats.TxDMAs != 1 {
		t.Fatalf("TxDMAs = %d, want 1 (second send must hit the Message Cache)",
			r.boards[0].Stats.TxDMAs)
	}
	if hr := r.boards[0].HitRatio(); hr != 50 {
		t.Fatalf("hit ratio = %v, want 50", hr)
	}
}

func TestStandardAlwaysDMAs(t *testing.T) {
	r := newRig(t, config.NICStandard, nil)
	r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
	r.k.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 4096, VAddr: 0x10000, CacheTx: true})
			p.Advance(1_000_000)
			p.Sync()
		}
	})
	r.k.Run()
	if r.boards[0].Stats.TxDMAs != 3 {
		t.Fatalf("TxDMAs = %d, want 3", r.boards[0].Stats.TxDMAs)
	}
	if r.boards[0].MC != nil {
		t.Fatal("standard board must not have a Message Cache")
	}
	if r.boards[0].HitRatio() != 0 {
		t.Fatal("standard board hit ratio must be 0")
	}
}

// endToEnd measures send-to-handler latency for one 4 KB page message,
// warmed so the CNI Message Cache hits.
func endToEnd(t *testing.T, kind config.NICKind, tweak func(*config.Config)) sim.Time {
	t.Helper()
	r := newRig(t, kind, tweak)
	var sent, arrived []sim.Time
	onNIC := kind == config.NICCNI
	r.boards[1].Register(opData, onNIC, func(at sim.Time, m *Message) {
		arrived = append(arrived, at)
	})
	r.k.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			p.Sync()
			sent = append(sent, p.Local())
			r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 4096,
				VAddr: 0x10000, CacheTx: true})
			p.Advance(100_000_000) // long gap: measurements independent
		}
	})
	r.k.Run()
	if len(arrived) != 2 {
		t.Fatalf("%d arrivals", len(arrived))
	}
	return arrived[1] - sent[1] // warmed measurement
}

func TestCNILatencyBeatsStandard(t *testing.T) {
	cniLat := endToEnd(t, config.NICCNI, nil)
	stdLat := endToEnd(t, config.NICStandard, nil)
	if cniLat >= stdLat {
		t.Fatalf("CNI latency %d >= standard %d", cniLat, stdLat)
	}
	// The paper's headline microbenchmark: ~33% lower at 4 KB. Accept a
	// broad band here; the calibrated check lives in the experiments
	// package.
	reduction := float64(stdLat-cniLat) / float64(stdLat) * 100
	if reduction < 15 || reduction > 60 {
		t.Fatalf("latency reduction %.1f%%, want within [15,60]", reduction)
	}
}

func TestInterruptPenaltyChargedToComputingHost(t *testing.T) {
	r := newRig(t, config.NICStandard, nil)
	r.boards[1].Register(opData, false, func(sim.Time, *Message) {})
	victim := r.k.Spawn("victim", func(p *sim.Proc) {
		p.Advance(100_000_000)
		p.Sync()
	})
	r.boards[1].SetHostProc(victim)
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 64, VAddr: 0x1000})
	})
	r.k.Run()
	if victim.PenaltyTime == 0 {
		t.Fatal("interrupt on a computing host must steal CPU time")
	}
	if r.boards[1].Stats.Interrupts != 1 {
		t.Fatalf("Interrupts = %d, want 1", r.boards[1].Stats.Interrupts)
	}
}

func TestBlockedHostAbsorbsInterruptFree(t *testing.T) {
	r := newRig(t, config.NICStandard, nil)
	r.boards[1].Register(opData, false, func(sim.Time, *Message) {})
	blocked := r.k.Spawn("blocked", func(p *sim.Proc) { p.Block() })
	r.boards[1].SetHostProc(blocked)
	r.k.Spawn("sender", func(p *sim.Proc) {
		p.Advance(1000) // let the receiver block first
		p.Sync()
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 64, VAddr: 0x1000})
	})
	r.k.Run()
	r.k.Drain()
	if blocked.PenaltyTime != 0 {
		t.Fatal("idle host must not accumulate interrupt penalty")
	}
}

func TestPollInterruptHybrid(t *testing.T) {
	r := newRig(t, config.NICCNI, nil)
	r.boards[1].Register(opData, false, func(sim.Time, *Message) {})
	r.k.Spawn("sender", func(p *sim.Proc) {
		// Burst of 5 back-to-back messages, then a long quiet gap, then
		// one more: the burst tail should be polled, the isolated one
		// interrupted.
		for i := 0; i < 5; i++ {
			r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 64})
			p.Advance(1000)
		}
		p.Advance(10_000_000_000) // ~60 s of cycles: far beyond the window
		p.Sync()
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 64})
	})
	r.k.Run()
	s := r.boards[1].Stats
	if s.Polls < 3 {
		t.Fatalf("Polls = %d, want >=3 within the burst", s.Polls)
	}
	if s.Interrupts < 2 {
		t.Fatalf("Interrupts = %d, want >=2 (first arrival + post-gap)", s.Interrupts)
	}
}

func TestPureInterruptAblation(t *testing.T) {
	r := newRig(t, config.NICCNI, func(c *config.Config) { c.PureInterrupt = true })
	r.boards[1].Register(opData, false, func(sim.Time, *Message) {})
	r.k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 64})
			p.Advance(100)
		}
	})
	r.k.Run()
	if r.boards[1].Stats.Polls != 0 {
		t.Fatal("PureInterrupt must never poll")
	}
	if r.boards[1].Stats.Interrupts != 5 {
		t.Fatalf("Interrupts = %d, want 5", r.boards[1].Stats.Interrupts)
	}
}

func TestAIHRunsWithoutHostInvolvement(t *testing.T) {
	r := newRig(t, config.NICCNI, nil)
	ran := false
	r.boards[1].Register(opData, true, func(at sim.Time, m *Message) { ran = true })
	host := r.k.Spawn("host1", func(p *sim.Proc) {
		p.Advance(100_000_000)
		p.Sync()
	})
	r.boards[1].SetHostProc(host)
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 128})
	})
	r.k.Run()
	if !ran {
		t.Fatal("AIH handler did not run")
	}
	if host.PenaltyTime != 0 {
		t.Fatal("AIH must not steal host CPU time")
	}
	if r.boards[1].Stats.AIHRuns != 1 || r.boards[1].Stats.Interrupts != 0 {
		t.Fatalf("stats = %+v", r.boards[1].Stats)
	}
}

func TestStandardIgnoresOnNIC(t *testing.T) {
	r := newRig(t, config.NICStandard, nil)
	r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 64})
	})
	r.k.Run()
	s := r.boards[1].Stats
	if s.AIHRuns != 0 || s.HostHandlers != 1 {
		t.Fatalf("standard board ran AIH: %+v", s)
	}
}

func TestReceiveCachingEnablesMigrationHit(t *testing.T) {
	r := newRig(t, config.NICCNI, nil)
	rxBuf := uint64(0x40000)
	r.boards[1].Register(opData, true, func(at sim.Time, m *Message) {})
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 2048,
			VAddr: 0x10000, DeliverVAddr: rxBuf, DeliverBytes: 2048, CacheRx: true})
	})
	r.k.Run()
	b1 := r.boards[1]
	if b1.MC.Stats.RxBindings != 1 {
		t.Fatalf("RxBindings = %d, want 1", b1.MC.Stats.RxBindings)
	}
	// The migrated page can now leave node 1 without a host DMA.
	if !b1.MC.Resident(rxBuf) {
		t.Fatal("arriving page not resident after receive caching")
	}
}

func TestReceiveCachingAblation(t *testing.T) {
	r := newRig(t, config.NICCNI, func(c *config.Config) { c.ReceiveCaching = false })
	r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 2048,
			VAddr: 0x10000, DeliverVAddr: 0x40000, DeliverBytes: 2048, CacheRx: true})
	})
	r.k.Run()
	if r.boards[1].MC.Stats.RxBindings != 0 {
		t.Fatal("receive caching disabled but a binding appeared")
	}
}

func TestFragmentedPacketUsesFlowState(t *testing.T) {
	r := newRig(t, config.NICCNI, nil)
	r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 4096, VAddr: 0x10000})
	})
	r.k.Run()
	pf := r.boards[1].PF
	if pf.Stats.FragInstalls != 1 {
		t.Fatalf("FragInstalls = %d, want 1", pf.Stats.FragInstalls)
	}
	// 86 cells: 85 routed through the flow state.
	if pf.Stats.FragHits != 85 {
		t.Fatalf("FragHits = %d, want 85", pf.Stats.FragHits)
	}
	if pf.FragmentFlows() != 0 {
		t.Fatal("fragment flow leaked")
	}
}

func TestNoFlushSkipsFlushCost(t *testing.T) {
	r := newRig(t, config.NICCNI, nil)
	r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
	r.k.Spawn("app", func(p *sim.Proc) {
		// Dirty the buffer, then send with NoFlush.
		r.mem[0].WriteRange(0x10000, 2048)
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 2048,
			VAddr: 0x10000, NoFlush: true})
	})
	r.k.Run()
	if r.boards[0].Stats.FlushCycles != 0 {
		t.Fatalf("FlushCycles = %d with NoFlush", r.boards[0].Stats.FlushCycles)
	}
}

func TestSendFlushesDirtyBuffer(t *testing.T) {
	r := newRig(t, config.NICCNI, nil)
	r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
	r.k.Spawn("app", func(p *sim.Proc) {
		r.mem[0].WriteRange(0x10000, 2048)
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 2048, VAddr: 0x10000})
	})
	r.k.Run()
	if r.boards[0].Stats.FlushCycles == 0 {
		t.Fatal("dirty buffer sent without flush cost")
	}
	if r.mem[0].Stats.FlushedLns == 0 {
		t.Fatal("no lines actually flushed")
	}
}

func TestNoteWriteInvalidatesWithoutSnooping(t *testing.T) {
	r := newRig(t, config.NICCNI, func(c *config.Config) { c.ConsistencySnooping = false })
	r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
	page := uint64(0x10000)
	r.k.Spawn("app", func(p *sim.Proc) {
		m := &Message{From: 0, To: 1, Op: opData, Size: 2048, VAddr: page, CacheTx: true}
		r.boards[0].Send(p, m)
		p.Advance(10_000_000)
		p.Sync()
		r.boards[0].NoteWrite(page + 100) // CPU writes the page
		m2 := &Message{From: 0, To: 1, Op: opData, Size: 2048, VAddr: page, CacheTx: true}
		r.boards[0].Send(p, m2)
	})
	r.k.Run()
	// Without snooping the write killed the binding: both sends DMA.
	if r.boards[0].Stats.TxDMAs != 2 {
		t.Fatalf("TxDMAs = %d, want 2 (binding must die without snooping)",
			r.boards[0].Stats.TxDMAs)
	}
}

func TestSnoopingKeepsBindingThroughWrites(t *testing.T) {
	r := newRig(t, config.NICCNI, nil)
	r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
	page := uint64(0x10000)
	r.k.Spawn("app", func(p *sim.Proc) {
		m := &Message{From: 0, To: 1, Op: opData, Size: 2048, VAddr: page, CacheTx: true}
		r.boards[0].Send(p, m)
		p.Advance(10_000_000)
		p.Sync()
		r.boards[0].NoteWrite(page + 100)
		r.mem[0].WriteRange(page, 2048) // dirty it so the flush snoops
		m2 := &Message{From: 0, To: 1, Op: opData, Size: 2048, VAddr: page, CacheTx: true}
		r.boards[0].Send(p, m2)
	})
	r.k.Run()
	if r.boards[0].Stats.TxDMAs != 1 {
		t.Fatalf("TxDMAs = %d, want 1 (snooping keeps binding valid)", r.boards[0].Stats.TxDMAs)
	}
	if r.boards[0].MC.Stats.SnoopUpdates == 0 {
		t.Fatal("flush of a bound dirty page must register snoop updates")
	}
}

func TestSendAtFromAIHCostsHostNothing(t *testing.T) {
	// Node 1's AIH replies to node 0 directly from the board.
	r := newRig(t, config.NICCNI, nil)
	gotReply := false
	r.boards[1].Register(opData, true, func(at sim.Time, m *Message) {
		r.boards[1].SendAt(at, &Message{From: 1, To: 0, Op: opReply, Size: 64})
	})
	r.boards[0].Register(opReply, true, func(sim.Time, *Message) { gotReply = true })
	host1 := r.k.Spawn("host1", func(p *sim.Proc) { p.Advance(50_000_000); p.Sync() })
	r.boards[1].SetHostProc(host1)
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 64})
	})
	r.k.Run()
	if !gotReply {
		t.Fatal("AIH reply never arrived")
	}
	if host1.PenaltyTime != 0 {
		t.Fatal("AIH round trip must not touch the remote host CPU")
	}
}

func TestSendAtOnStandardChargesHost(t *testing.T) {
	r := newRig(t, config.NICStandard, nil)
	gotReply := false
	r.boards[1].Register(opData, false, func(at sim.Time, m *Message) {
		r.boards[1].SendAt(at, &Message{From: 1, To: 0, Op: opReply, Size: 64})
	})
	r.boards[0].Register(opReply, false, func(sim.Time, *Message) { gotReply = true })
	host1 := r.k.Spawn("host1", func(p *sim.Proc) { p.Advance(500_000_000); p.Sync() })
	r.boards[1].SetHostProc(host1)
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 64})
	})
	r.k.Run()
	if !gotReply {
		t.Fatal("reply never arrived")
	}
	if host1.PenaltyTime == 0 {
		t.Fatal("standard protocol service must steal remote host CPU time")
	}
}

func TestSendReturnsOverheadCharged(t *testing.T) {
	r := newRig(t, config.NICCNI, nil)
	r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
	var overhead sim.Time
	r.k.Spawn("app", func(p *sim.Proc) {
		overhead = r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 64, VAddr: 0x1000})
	})
	r.k.Run()
	want := r.cfg.NSToCycles(r.cfg.ADCSendNS)
	if overhead < want {
		t.Fatalf("overhead %d < ADC enqueue cost %d", overhead, want)
	}
}

func TestUnregisteredOpPanics(t *testing.T) {
	r := newRig(t, config.NICCNI, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("delivery to unregistered op did not panic")
		}
	}()
	r.k.Spawn("sender", func(p *sim.Proc) {
		r.boards[0].Send(p, &Message{From: 0, To: 1, Op: 99, Size: 64})
	})
	r.k.Run()
}

// TestDeliveryAllocs pins the board's send and delivery path at one
// allocation per message, the caller's own Message: the fabric packet
// lives inside it, and the handler runs from a pre-bound event.
func TestDeliveryAllocs(t *testing.T) {
	for _, kind := range config.Kinds() {
		for _, onNIC := range []bool{true, false} {
			t.Run(fmt.Sprintf("%v/onNIC=%v", kind, onNIC), func(t *testing.T) {
				r := newRig(t, kind, nil)
				delivered := 0
				r.boards[1].Register(opData, onNIC, func(sim.Time, *Message) { delivered++ })
				send := func() {
					r.boards[0].SendAt(r.k.Now(), &Message{From: 0, To: 1, Op: opData, Size: HeaderBytes})
					r.k.Run()
				}
				// Warm the calendar's bucket slabs over several windows.
				for i := 0; i < 1000; i++ {
					send()
				}
				if avg := testing.AllocsPerRun(1000, send); avg != 1 {
					t.Errorf("a delivered message allocated %.2f objects, want 1 (the Message)", avg)
				}
				if delivered != 2001 {
					t.Errorf("%d deliveries for 2001 sends", delivered)
				}
			})
		}
	}
}

// TestMessageLaunchesOnce checks that launching a Message a second time
// panics, whether its first packet is still in flight or delivered.
func TestMessageLaunchesOnce(t *testing.T) {
	for _, kind := range config.Kinds() {
		for _, delivered := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/delivered=%v", kind, delivered), func(t *testing.T) {
				r := newRig(t, kind, nil)
				r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
				m := &Message{From: 0, To: 1, Op: opData, Size: HeaderBytes}
				r.boards[0].SendAt(0, m)
				if delivered {
					r.k.Run()
				}
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, "launched a message (op 1) twice") {
						t.Fatalf("second launch recovered %q", msg)
					}
				}()
				r.boards[0].SendAt(r.k.Now(), m)
			})
		}
	}
}
