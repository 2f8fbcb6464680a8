package nic

// This file is the kind-specific half of a Board. The paper's baseline
// is the CNI "minus ADC, Message Cache and AIH", and OSIRIS the ADC
// board the CNI derives from, so the three interface models differ in
// exactly two properties:
//
//   - a device channel (CNI, OSIRIS): the host reaches the board through
//     ADC queues mapped into user space, so a send costs the ADC enqueue
//     and a completion the ADC dequeue. Without one (standard) both go
//     through the kernel's send and receive paths.
//   - handlers on the board (CNI): protocol code runs as Application
//     Interrupt Handlers on the receive processor, beside the Message
//     Cache and PATHFINDER. Replies, retransmits and ACK/NAK control
//     cells then leave from the board without the host, and the host
//     polls its receive queue while arrivals are frequent. Elsewhere the
//     protocol is host code: every arrival, retransmit timeout and
//     control cell interrupts the host, every reply or control cell is a
//     host send, and a retransmit re-DMAs the buffer after a host resend.
//
// provision fixes a board's components and costs from those two
// properties once, in NewBoard; the poll/interrupt hybrid is the only
// per-board notification state.

import (
	"fmt"

	"cni/internal/adc"
	"cni/internal/config"
	"cni/internal/msgcache"
	"cni/internal/pathfinder"
	"cni/internal/sim"
)

// provision gives b the components and the fixed costs of its model.
func (b *Board) provision() {
	cfg := b.cfg
	var channel bool
	switch cfg.NIC {
	case config.NICCNI:
		channel, b.onBoard = true, true
	case config.NICOsiris:
		channel = true
	case config.NICStandard:
	default:
		panic(fmt.Sprintf("nic: unknown NIC kind %d", int(cfg.NIC)))
	}

	b.sendCost = cfg.NSToCycles(cfg.KernelSendNS)
	b.recvHostCost = cfg.NSToCycles(cfg.KernelRecvNS + cfg.HostProtocolNS)
	if channel {
		b.ADC = adc.NewManager(64, 256)
		ch, err := b.ADC.Open(b.node, uint32(b.node))
		if err != nil {
			panic(fmt.Sprintf("nic: opening device channel: %v", err))
		}
		b.channel = ch
		b.sendCost = cfg.NSToCycles(cfg.ADCSendNS)
		b.dequeueCost = cfg.NSToCycles(cfg.ADCRecvNS)
		// The ADC hands the completion to user space without a kernel
		// receive path; the protocol handler still runs on the host.
		b.recvHostCost = cfg.NSToCycles(cfg.HostProtocolNS)
	}

	b.handlerSendCost = b.sendCost
	if b.onBoard {
		b.MC = msgcache.New(cfg.MessageCacheByte, cfg.PageBytes, cfg.ConsistencySnooping)
		b.PF = pathfinder.New()
		b.handlerSendCost = 0
		b.recvHostCost = 0
		b.pollCost = cfg.NSToCycles(cfg.PollNS)
		b.retxBoardCost = cfg.NICToCPU(cfg.NICRetransmitCycles)
		if cfg.PollSwitchRate > 0 {
			cyclesPerSecond := float64(cfg.CPUFreqMHz) * 1e6
			b.pollWindow = sim.Time(cyclesPerSecond / cfg.PollSwitchRate)
		}
	}
}

// interrupt accounts one host interrupt and returns its cost.
func (b *Board) interrupt() sim.Time {
	b.Stats.Interrupts++
	return b.cfg.InterruptCycles()
}

// notify models how the board gets the host's attention at time at,
// returning when the host notices and the CPU cycles stolen from it.
// The CNI prefers polling when arrivals are frequent and falls back to
// interrupts when the channel has gone quiet (Section 2.1); with
// PureInterrupt, and on the other models, every arrival interrupts.
func (b *Board) notify(at sim.Time) (notice, penalty sim.Time) {
	if b.onBoard && !b.cfg.PureInterrupt {
		polling := b.haveNotified && at-b.lastHostNotify <= b.pollWindow
		b.haveNotified = true
		b.lastHostNotify = at
		if polling {
			b.Stats.Polls++
			return at + b.pollCost, b.pollCost
		}
	}
	c := b.interrupt()
	return at + c, c
}

// timeoutCost is the host cost of a retransmit-timer expiry. On the CNI
// the timer is board firmware and costs the host nothing; elsewhere it
// is a host kernel timer, so the host takes an interrupt before the
// kernel can resend anything.
func (b *Board) timeoutCost() sim.Time {
	if b.onBoard {
		return 0
	}
	return b.interrupt()
}

// controlRxCost is the host cost of receiving one ACK/NAK control cell:
// nothing on the CNI, which turns control cells around on the board;
// elsewhere an interrupt plus the receive path (the ADC dequeue, or the
// kernel's without a device channel).
func (b *Board) controlRxCost() sim.Time {
	switch {
	case b.onBoard:
		return 0
	case b.channel != nil:
		return b.interrupt() + b.dequeueCost
	default:
		return b.interrupt() + b.cfg.NSToCycles(b.cfg.KernelRecvNS)
	}
}
