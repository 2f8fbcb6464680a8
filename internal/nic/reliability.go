package nic

// This file is the per-VC go-back-N reliability layer that sits between
// the transmit/receive processors and the fabric when fault injection is
// enabled (Config.FaultsEnabled). The paper assumes a lossless fabric;
// to compare the two interfaces under loss we give both the same
// protocol — sequence numbers, cumulative ACKs, gap/CRC NAKs, timeout
// retransmission with exponential backoff — but run it where each
// interface would run it:
//
//   - on the CNI the protocol is firmware on the board's transmit and
//     receive processors: unacked PDUs stay resident in board memory
//     (their Message Cache bindings pinned against the clock sweep), a
//     retransmit re-launches from the board copy with no DMA and no
//     host involvement, and control cells are turned around entirely on
//     the board;
//   - on the standard interface the protocol is kernel code: every
//     control cell interrupts the host, the retransmit timer is a host
//     kernel timer, and a retransmit re-DMAs the buffer from host
//     memory after the kernel re-send path.
//
// That asymmetry — not any difference in the protocol itself — is what
// experiment FR1 measures.
//
// The layer is created only when faults are enabled, so the default
// lossless paths are bit-identical to a build without this file.

import (
	"cni/internal/atm"
	"cni/internal/sim"
)

// Reliability control operations, in a range no protocol uses (DSM ops
// are 10..21, msgpass 0x300/0x400+, collectives 0x500/0x501, tests and
// microbenchmarks below 0x5000). They are intercepted by admit before
// PATHFINDER classification, so they need no registered handler. Aux
// carries the sequence number.
const (
	opRelAck uint32 = 0x7A00 // cumulative: everything <= Aux received
	opRelNak uint32 = 0x7A01 // go back: resend everything >= Aux
)

// vcTx is the transmit half of one virtual circuit: the retention
// window of unacked PDUs, the overflow queue waiting for window space,
// and the retransmit timer state. Sequence numbers are never reused
// within a run, so plain uint32 comparison orders them (a VC would need
// 2^32 PDUs to wrap; no simulation gets close).
type vcTx struct {
	peer     int
	nextSeq  uint32
	window   []*Message // unacked, oldest first; len <= RetransmitWindow
	queue    []*Message // sequenced but waiting for window space
	backoff  int64      // current timeout multiplier (1..RetransmitBackoff)
	timerGen uint64     // arming generation; stale timer events no-op
	nakMute  sim.Time   // ignore NAKs until then (a retransmit is in flight)
}

// vcRx is the receive half: the next sequence number this board will
// accept from the peer.
type vcRx struct {
	expect uint32
}

// reliability is one board's go-back-N engine.
type reliability struct {
	b        *Board
	timeout  sim.Time // base retransmit timeout in CPU cycles
	tx       []*vcTx  // indexed by destination node
	rx       []*vcRx  // indexed by source node
	retained int      // bytes currently held in transmit windows
}

func newReliability(b *Board) *reliability {
	r := &reliability{
		b:       b,
		timeout: b.cfg.NSToCycles(b.cfg.RetransmitTimeoutNS),
	}
	if r.timeout <= 0 {
		r.timeout = 1
	}
	n := b.net.Nodes()
	for i := 0; i < n; i++ {
		r.tx = append(r.tx, &vcTx{peer: i, backoff: 1})
		r.rx = append(r.rx, &vcRx{})
	}
	return r
}

// --- transmit side ---

// send stamps m with its VC sequence number and either launches it
// (window space available, PDU retained on the board until acked) or
// parks it on the overflow queue. Called from the transmit processor
// for every non-loopback message.
func (r *reliability) send(at sim.Time, m *Message) {
	s := r.tx[m.To]
	m.relSeq = s.nextSeq
	s.nextSeq++
	if len(s.window) >= r.b.cfg.RetransmitWindow {
		s.queue = append(s.queue, m)
		if len(s.queue) > r.b.Stats.Rel.MaxQueued {
			r.b.Stats.Rel.MaxQueued = len(s.queue)
		}
		return
	}
	wasEmpty := len(s.window) == 0
	r.place(at, s, m)
	if wasEmpty {
		r.rearm(at, s)
	}
}

// place appends m to the retention window, pins its buffer pages in the
// Message Cache so the clock sweep cannot evict a PDU the board may
// still have to retransmit, and launches it.
func (r *reliability) place(at sim.Time, s *vcTx, m *Message) {
	s.window = append(s.window, m)
	if len(s.window) > r.b.Stats.Rel.MaxWindow {
		r.b.Stats.Rel.MaxWindow = len(s.window)
	}
	r.retained += m.Size
	if uint64(r.retained) > r.b.Stats.Rel.RetainedBytes {
		r.b.Stats.Rel.RetainedBytes = uint64(r.retained)
	}
	r.b.launch(at, m)
	// Pin after launch: the transmit path may have just created the
	// binding (BindTransmit after the DMA) that retention must protect.
	r.eachPage(m, r.b.MC.Pin)
}

// eachPage applies fn to every page of m's transmit buffer (CNI board
// with a mapped buffer only).
func (r *reliability) eachPage(m *Message, fn func(vaddr uint64) bool) {
	if r.b.MC == nil || m.VAddr == 0 || m.Size <= 0 {
		return
	}
	pb := uint64(r.b.cfg.PageBytes)
	for v := m.VAddr / pb; v <= (m.VAddr+uint64(m.Size)-1)/pb; v++ {
		fn(v * pb)
	}
}

// popAcked releases every window entry with sequence number below
// bound, unpinning its pages; it reports whether anything was released.
func (r *reliability) popAcked(s *vcTx, bound uint32) bool {
	progress := false
	for len(s.window) > 0 && s.window[0].relSeq < bound {
		m := s.window[0]
		s.window[0] = nil
		s.window = s.window[1:]
		r.retained -= m.Size
		r.eachPage(m, r.b.MC.Unpin)
		progress = true
	}
	return progress
}

// refill promotes queued PDUs into freed window space, launching each.
func (r *reliability) refill(at sim.Time, s *vcTx) {
	for len(s.window) < r.b.cfg.RetransmitWindow && len(s.queue) > 0 {
		m := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		r.place(at, s, m)
	}
}

// drain returns the link serialization time of everything retained in
// s's window — the floor any sane retransmit timer sits above, because
// the ACK for the window tail cannot arrive before the data ahead of it
// has left the link. Without this term a full window of large PDUs
// outlives the base timeout and every fault snowballs into a spurious
// retransmit storm.
func (r *reliability) drain(s *vcTx) sim.Time {
	var d sim.Time
	for _, m := range s.window {
		d += r.b.cfg.SerializeCycles(m.Size)
	}
	return d
}

// rearm restarts (or, with an empty window, disarms) the retransmit
// timer for s. The generation counter cancels the previously armed
// event without touching the kernel's queue.
func (r *reliability) rearm(at sim.Time, s *vcTx) {
	s.timerGen++
	if len(s.window) == 0 {
		return
	}
	gen := s.timerGen
	r.b.k.At(at+r.drain(s)+r.timeout*sim.Time(s.backoff), func() { r.onTimeout(s, gen) })
}

// onTimeout fires when the oldest unacked PDU's timer expires: go back
// and resend the whole window, then back off exponentially. On the
// standard interface the timer is a host kernel timer, so the host
// takes an interrupt before the kernel can resend anything.
func (r *reliability) onTimeout(s *vcTx, gen uint64) {
	if gen != s.timerGen || len(s.window) == 0 {
		return
	}
	b := r.b
	now := b.k.Now()
	b.Stats.Rel.Timeouts++
	if c := b.dp.TimeoutHostCycles(); c > 0 {
		b.penalizeHost(c)
		now += c
	}
	r.retransmitFrom(now, s, s.window[0].relSeq)
	if s.backoff < b.cfg.RetransmitBackoff {
		s.backoff *= 2
		if s.backoff > b.cfg.RetransmitBackoff {
			s.backoff = b.cfg.RetransmitBackoff
		}
	}
	r.rearm(now, s)
}

// onAck processes a cumulative ACK from peer covering everything up to
// and including upto.
func (r *reliability) onAck(peer int, upto uint32, at sim.Time) {
	s := r.tx[peer]
	if !r.popAcked(s, upto+1) {
		return // stale or duplicate ACK: no new information
	}
	s.backoff = 1
	r.refill(at, s)
	r.rearm(at, s)
}

// onNak processes a go-back request: the peer is missing expect, so
// everything below it is implicitly acked and everything from it on in
// the window is resent — unless a retransmit burst is already in
// flight, in which case piling on would only congest the VC.
func (r *reliability) onNak(peer int, expect uint32, at sim.Time) {
	s := r.tx[peer]
	if r.popAcked(s, expect) {
		s.backoff = 1
	}
	if len(s.window) > 0 {
		if at < s.nakMute {
			r.b.Stats.Rel.NaksMuted++
		} else {
			r.retransmitFrom(at, s, expect)
		}
	}
	r.refill(at, s)
	r.rearm(at, s)
}

// retransmitFrom resends every window entry with sequence number >=
// from and opens the NAK mute window for the burst's flight time. The
// walk is synchronous — the firmware sweeps the retained window inside
// the timeout/NAK activation itself, so the whole go-back-N train is
// relaunched before any other same-cycle event gets to run. (Deferring
// the relaunches to scheduled same-timestamp events would order them
// after already-queued same-cycle work and perturb the goldens.)
func (r *reliability) retransmitFrom(at sim.Time, s *vcTx, from uint32) {
	n := 0
	var flight sim.Time
	for _, m := range s.window {
		if m.relSeq < from {
			continue
		}
		r.relaunch(at, m)
		flight += r.b.cfg.SerializeCycles(m.Size)
		n++
	}
	if n > 0 {
		r.b.Stats.Rel.Retransmits += uint64(n)
		s.nakMute = at + flight + r.timeout/2
	}
}

// relaunch re-transmits one retained PDU. On the CNI the copy is board
// resident: segmentation work plus the firmware's retransmit bookkeeping
// on the transmit processor, no DMA, no host. On the other interfaces
// the board retained nothing, so the host pays its resend path and the
// buffer is DMAed from host memory all over again.
func (r *reliability) relaunch(at sim.Time, m *Message) {
	b := r.b
	cells := int64(b.cfg.Cells(m.Size))
	work := b.cfg.NICToCPU(b.cfg.NICPacketTxCycles + b.cfg.NICCellTxCycles*cells)
	work += b.dp.RetransmitBoardCycles()
	b.Stats.Rel.RetxCycles += work
	_, end := b.txProc.Use(at, work)
	launch := end
	if redma, host := b.dp.RelaunchFromHost(); redma {
		b.penalizeHost(host)
		if m.VAddr != 0 && m.Size > 0 {
			_, dmaEnd := b.bus.Use(end, b.cfg.DMACycles(m.Size))
			b.Stats.TxDMAs++
			b.Stats.TxDMABytes += uint64(m.Size)
			launch = dmaEnd
		}
	}
	b.net.Send(launch, &atm.Packet{
		Src:    m.From,
		Dst:    m.To,
		VCI:    vci(m),
		Size:   m.Size,
		Header: header(m),
		Meta:   m,
	})
}

// --- receive side ---

// admit is the receive processor's acceptance filter, called for every
// arriving packet before classification. It consumes control cells,
// discards damaged and out-of-sequence PDUs, and generates ACK/NAK
// traffic. It returns true only for the in-sequence, intact PDU the
// normal receive path should go on to process.
func (r *reliability) admit(pkt *atm.Packet, m *Message, at sim.Time) bool {
	b := r.b
	if m.Op == opRelAck || m.Op == opRelNak {
		// One control cell of reassembly work on the receive processor.
		work := b.cfg.NICToCPU(b.cfg.NICPacketRxCycles + b.cfg.NICCellRxCycles)
		_, end := b.rxProc.Use(at, work)
		if pkt.Damaged {
			// A control cell that fails its CRC is just dropped; the
			// sender's timer covers a lost ACK, a re-NAK covers a lost NAK.
			b.Stats.Rel.DropsSeen++
			return false
		}
		if c := b.dp.ControlRxHostCycles(); c > 0 {
			// Host-run protocol: every control cell interrupts the host.
			b.penalizeHost(c)
			end += c
		}
		if m.Op == opRelAck {
			r.onAck(m.From, m.Aux, end)
		} else {
			r.onNak(m.From, m.Aux, end)
		}
		return false
	}

	s := r.rx[m.From]
	if pkt.Damaged {
		// The train's AAL5 CRC cannot pass. The cell headers still name
		// the VC, so the receiver knows whom to ask for a go-back.
		cells := int64(b.cfg.Cells(m.Size))
		work := b.cfg.NICToCPU(b.cfg.NICPacketRxCycles + b.cfg.NICCellRxCycles*cells)
		_, end := b.rxProc.Use(at, work)
		b.Stats.Rel.DropsSeen++
		r.sendControl(end, m.From, opRelNak, s.expect)
		return false
	}
	switch {
	case m.relSeq == s.expect:
		// In sequence: ack it and let the normal receive path (which
		// charges the reassembly work) process it.
		s.expect++
		r.sendControl(at, m.From, opRelAck, m.relSeq)
		return true
	case m.relSeq > s.expect:
		// Gap: a predecessor died. Discard (go-back-N keeps no
		// out-of-order buffer) and ask for the resend.
		cells := int64(b.cfg.Cells(m.Size))
		work := b.cfg.NICToCPU(b.cfg.NICPacketRxCycles + b.cfg.NICCellRxCycles*cells)
		_, end := b.rxProc.Use(at, work)
		b.Stats.Rel.OutOfOrder++
		r.sendControl(end, m.From, opRelNak, s.expect)
		return false
	default:
		// Duplicate of something already delivered (a replayed train or
		// a go-back overshoot): discard and re-ack so the sender's
		// window can advance even if the original ACK died.
		cells := int64(b.cfg.Cells(m.Size))
		work := b.cfg.NICToCPU(b.cfg.NICPacketRxCycles + b.cfg.NICCellRxCycles*cells)
		_, end := b.rxProc.Use(at, work)
		b.Stats.Rel.DupDiscards++
		r.sendControl(end, m.From, opRelAck, s.expect-1)
		return false
	}
}

// sendControl emits one ACK or NAK cell to peer. Control cells are not
// sequenced or retained — loss is recovered by timers and duplicate
// ACKs — so they bypass send() and go straight to the launch path.
// When the protocol runs on the host, the host builds the cell first.
func (r *reliability) sendControl(at sim.Time, peer int, op, seq uint32) {
	b := r.b
	if op == opRelAck {
		b.Stats.Rel.AcksSent++
	} else {
		b.Stats.Rel.NaksSent++
	}
	if kc := b.dp.ControlTxHostCycles(); kc > 0 {
		b.penalizeHost(kc)
		at += kc
	}
	b.launch(at, &Message{From: b.node, To: peer, Op: op, Aux: seq, Size: HeaderBytes})
}
