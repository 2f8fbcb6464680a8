package nic

import (
	"testing"

	"cni/internal/config"
	"cni/internal/sim"
)

// TestDatapathCostsMatchModelConstants pins each kind-specific cost a
// board fixes from its two properties (device channel, handlers on
// board) to the configuration constants it stands for. A retransmit
// timeout and a received control cell also cost the host one interrupt
// wherever the protocol runs on the host, and none on the CNI.
func TestDatapathCostsMatchModelConstants(t *testing.T) {
	cfg := config.Default()
	ns := cfg.NSToCycles

	cases := []struct {
		kind config.NICKind

		send, handlerSend     sim.Time
		recvHost, recvDequeue sim.Time
		wake                  sim.Time
		timeout, retxBoard    sim.Time
		redma                 bool
		relaunchHost          sim.Time
		ctrlRx, ctrlTx        sim.Time
	}{
		{
			kind: config.NICCNI,
			send: ns(cfg.ADCSendNS), handlerSend: 0,
			recvHost: 0, recvDequeue: ns(cfg.ADCRecvNS),
			wake:    ns(cfg.PollNS),
			timeout: 0, retxBoard: cfg.NICToCPU(cfg.NICRetransmitCycles),
			redma: false, relaunchHost: 0,
			ctrlRx: 0, ctrlTx: 0,
		},
		{
			kind: config.NICOsiris,
			send: ns(cfg.ADCSendNS), handlerSend: ns(cfg.ADCSendNS),
			recvHost: ns(cfg.HostProtocolNS), recvDequeue: ns(cfg.ADCRecvNS),
			wake:    0,
			timeout: cfg.InterruptCycles(), retxBoard: 0,
			redma: true, relaunchHost: ns(cfg.ADCSendNS),
			ctrlRx: cfg.InterruptCycles() + ns(cfg.ADCRecvNS),
			ctrlTx: ns(cfg.ADCSendNS),
		},
		{
			kind: config.NICStandard,
			send: ns(cfg.KernelSendNS), handlerSend: ns(cfg.KernelSendNS),
			recvHost: ns(cfg.KernelRecvNS + cfg.HostProtocolNS), recvDequeue: 0,
			wake:    0,
			timeout: cfg.InterruptCycles(), retxBoard: 0,
			redma: true, relaunchHost: ns(cfg.KernelSendNS),
			ctrlRx: cfg.InterruptCycles() + ns(cfg.KernelRecvNS),
			ctrlTx: ns(cfg.KernelSendNS),
		},
	}
	for _, tc := range cases {
		r := newRig(t, tc.kind, nil)
		b := r.boards[0]
		check := func(name string, got, want sim.Time) {
			if got != want {
				t.Errorf("%v: %s = %d cycles, want %d", tc.kind, name, got, want)
			}
		}
		check("send", b.sendCost, tc.send)
		check("handler send", b.handlerSendCost, tc.handlerSend)
		check("host receive", b.recvHostCost, tc.recvHost)
		check("RecvDequeueCost", b.RecvDequeueCost(), tc.recvDequeue)
		check("WakeDelay", b.WakeDelay(), tc.wake)
		check("retransmit board", b.retxBoardCost, tc.retxBoard)
		// relaunch re-DMAs, after charging the host a handler send,
		// exactly when the board does not run the protocol.
		if redma := !b.onBoard; redma != tc.redma {
			t.Errorf("%v: retransmit re-DMAs = %v, want %v", tc.kind, redma, tc.redma)
		}
		if tc.redma {
			check("relaunch host", b.handlerSendCost, tc.relaunchHost)
		}
		check("control transmit", b.handlerSendCost, tc.ctrlTx)

		var wantIntr uint64 // the host runs the protocol off the CNI
		if tc.kind != config.NICCNI {
			wantIntr = 1
		}
		before := b.Stats.Interrupts
		check("timeout", b.timeoutCost(), tc.timeout)
		if got := b.Stats.Interrupts - before; got != wantIntr {
			t.Errorf("%v: a timeout added %d interrupts, want %d", tc.kind, got, wantIntr)
		}
		before = b.Stats.Interrupts
		check("control receive", b.controlRxCost(), tc.ctrlRx)
		if got := b.Stats.Interrupts - before; got != wantIntr {
			t.Errorf("%v: a control cell added %d interrupts, want %d", tc.kind, got, wantIntr)
		}
	}
}

// TestDatapathCapabilities pins the capability predicates upper layers
// branch on.
func TestDatapathCapabilities(t *testing.T) {
	cases := []struct {
		kind           config.NICKind
		onBoard, userQ bool
	}{
		{config.NICCNI, true, true},
		{config.NICOsiris, false, true},
		{config.NICStandard, false, false},
	}
	for _, tc := range cases {
		r := newRig(t, tc.kind, nil)
		b := r.boards[0]
		if b.HandlersOnBoard() != tc.onBoard {
			t.Errorf("%v: HandlersOnBoard = %v", tc.kind, b.HandlersOnBoard())
		}
		if b.UserLevelQueues() != tc.userQ {
			t.Errorf("%v: UserLevelQueues = %v", tc.kind, b.UserLevelQueues())
		}
	}
}

// TestBoardProvisioningPerKind: each constructor provisions exactly the
// components its model owns — the CNI a Message Cache, PATHFINDER and a
// device channel; OSIRIS only the channel; the standard board none.
func TestBoardProvisioningPerKind(t *testing.T) {
	cases := []struct {
		kind            config.NICKind
		mc, pf, channel bool
	}{
		{config.NICCNI, true, true, true},
		{config.NICOsiris, false, false, true},
		{config.NICStandard, false, false, false},
	}
	for _, tc := range cases {
		r := newRig(t, tc.kind, nil)
		b := r.boards[0]
		if (b.MC != nil) != tc.mc {
			t.Errorf("%v: Message Cache present = %v, want %v", tc.kind, b.MC != nil, tc.mc)
		}
		if (b.PF != nil) != tc.pf {
			t.Errorf("%v: PATHFINDER present = %v, want %v", tc.kind, b.PF != nil, tc.pf)
		}
		if (b.Channel() != nil) != tc.channel {
			t.Errorf("%v: device channel present = %v, want %v", tc.kind, b.Channel() != nil, tc.channel)
		}
	}
}

// TestVCIUses16BitLanes: the virtual-circuit identifier packs From and
// To into disjoint 16-bit lanes; with the old 8-bit packing nodes 258
// and (2,2) collided ((1<<8)|258 == (2<<8)|2).
func TestVCIUses16BitLanes(t *testing.T) {
	a := vci(&Message{From: 1, To: 258})
	b := vci(&Message{From: 2, To: 2})
	if a == b {
		t.Fatalf("vci collision: (1->258) and (2->2) both map to %#x", a)
	}
	if got, want := vci(&Message{From: 3, To: 5}), uint32(3<<16|5); got != want {
		t.Fatalf("vci(3->5) = %#x, want %#x", got, want)
	}
}

// TestOsirisEveryTransmitDMAs: with no Message Cache, resending the
// same warm buffer must DMA every time on OSIRIS, unlike the CNI.
func TestOsirisEveryTransmitDMAs(t *testing.T) {
	r := newRig(t, config.NICOsiris, nil)
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
		t.Fatalf("TxDMAs = %d, want 3 (OSIRIS has no transmit cache)", r.boards[0].Stats.TxDMAs)
	}
	if r.boards[0].Stats.AIHRuns != 0 || r.boards[1].Stats.AIHRuns != 0 {
		t.Fatal("OSIRIS must not run Application Interrupt Handlers")
	}
}

// TestOsirisReceiveInterrupts: every OSIRIS arrival interrupts the
// host, even under the arrival rates that keep the CNI in polling mode.
func TestOsirisReceiveInterrupts(t *testing.T) {
	const n = 5
	r := newRig(t, config.NICOsiris, func(c *config.Config) { c.PollSwitchRate = 1e9 })
	got := 0
	r.boards[1].Register(opData, false, func(sim.Time, *Message) { got++ })
	r.k.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 256})
			p.Advance(10_000)
			p.Sync()
		}
	})
	r.k.Run()
	if got != n {
		t.Fatalf("%d of %d messages delivered", got, n)
	}
	if r.boards[1].Stats.Interrupts != n {
		t.Fatalf("Interrupts = %d, want %d (OSIRIS never polls)", r.boards[1].Stats.Interrupts, n)
	}
	if r.boards[1].Stats.Polls != 0 {
		t.Fatalf("Polls = %d, want 0", r.boards[1].Stats.Polls)
	}
}

// TestHostRunReliabilityInterrupts: on a corrupting fabric a pure sender
// takes exactly one interrupt per retransmit timeout and per intact
// ACK/NAK cell it receives when the protocol runs on the host, and none
// on the CNI, whose firmware handles both on the board.
func TestHostRunReliabilityInterrupts(t *testing.T) {
	for _, kind := range config.Kinds() {
		// Corruption, unlike loss, delivers every cell train, so each
		// control cell either reaches the sender intact or is counted
		// as a drop.
		r := newRig(t, kind, func(c *config.Config) { c.CellCorruptRate = 0.01 })
		r.boards[1].Register(opData, true, func(sim.Time, *Message) {})
		r.k.Spawn("app", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				r.boards[0].Send(p, &Message{From: 0, To: 1, Op: opData, Size: 1024, VAddr: 0x10000})
				p.Advance(2_000)
				p.Sync()
			}
		})
		r.k.Run()
		tx, rx := r.boards[0].Stats, r.boards[1].Stats
		if tx.Rel.Timeouts == 0 || rx.Rel.NaksSent == 0 {
			t.Fatalf("%v: %d timeouts, %d NAKs: the corruption rate no longer exercises recovery",
				kind, tx.Rel.Timeouts, rx.Rel.NaksSent)
		}
		// The sender receives only control cells; damaged ones are
		// dropped before they reach the host.
		want := tx.Rel.Timeouts + rx.Rel.AcksSent + rx.Rel.NaksSent - tx.Rel.DropsSeen
		if kind == config.NICCNI {
			want = 0
		}
		if tx.Interrupts != want {
			t.Errorf("%v: sender took %d interrupts, want %d", kind, tx.Interrupts, want)
		}
	}
}
