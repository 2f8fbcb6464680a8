// Package nic models the network adaptor boards of the CNI paper: the
// CNI board itself (Application Device Channels, Message Cache,
// PATHFINDER demultiplexing, Application Interrupt Handlers), the
// OSIRIS-class ADC baseline it derives from (user-level queues,
// interrupt-driven receive, no Message Cache), and the standard
// kernel-mediated interface the evaluation compares against. One Board
// type models all three: queues, AIH dispatch, ATM framing, go-back-N
// reliability and stats are shared, and the models differ only in
// whether the board has a device channel and whether protocol handlers
// run on it. NewBoard fixes the kind-specific costs from those two
// properties (datapath.go).
//
// A Board sits between the host (simulated processors, package sim;
// caches, package memsys) and the fabric (package atm). Timing flows
// through three contended resources per node: the transmit processor,
// the receive processor (both clocked at the board's 33 MHz), and the
// host memory bus used by the DMA engine.
package nic

import (
	"encoding/binary"
	"fmt"

	"cni/internal/adc"
	"cni/internal/atm"
	"cni/internal/config"
	"cni/internal/memsys"
	"cni/internal/msgcache"
	"cni/internal/pathfinder"
	"cni/internal/sim"
)

// PhysPageOffset separates the simulated physical page namespace from
// the virtual one, so that a translation bug cannot masquerade as an
// identity mapping.
const PhysPageOffset uint64 = 1 << 20

// HeaderBytes is the protocol header PATHFINDER classifies on.
const HeaderBytes = 16

// Message is one protocol message between nodes. Size is the modeled
// wire size (protocol header plus data); Payload carries the
// protocol-level Go value by reference, standing in for the bytes the
// real board would copy. A Message holds its fabric packet and stays
// allocated from Send to delivery, so its layout is kept at 136 bytes:
// the header PATHFINDER classifies on is not stored (the receiving
// board builds it from Op, From, To and Aux), and the four flags share
// one word with relSeq.
type Message struct {
	From int
	To   int
	Op   uint32 // protocol operation; PATHFINDER patterns match on it
	Aux  uint32 // second classifier word (header bytes 12..16); 0 when unused
	Size int

	// Transmit side: VAddr names the host buffer holding the data
	// (0 means the message is inline control data written into the
	// descriptor by programmed I/O — no DMA, no Message Cache).
	VAddr uint64

	// Receive side: if DeliverBytes > 0 the board DMAs that much
	// payload to the host buffer at DeliverVAddr before the handler or
	// application sees it.
	DeliverVAddr uint64
	DeliverBytes int

	Payload any

	// relSeq is the per-VC go-back-N sequence number stamped by the
	// reliability layer (faulty fabric only; zero otherwise).
	relSeq uint32

	CacheTx bool // transmit header cache bit: bind after transmit DMA
	NoFlush bool // transmit: data already flushed (e.g. flushed at a release)
	CacheRx bool // receive header cache bit: bind the arriving page

	// viaChannel marks a message the application posted on its device
	// channel (set by Send); the transmit processor pops the matching
	// descriptor.
	viaChannel bool

	// pkt is the fabric packet launch hands to the network, inline in
	// the Message so a send allocates nothing beyond the Message
	// itself. The fabric holds it until delivery, so a Message is
	// launched at most once (launch panics otherwise); retransmits
	// (relaunch) send a packet of their own.
	pkt atm.Packet

	// handler is the handler receive dispatched the message to; the
	// pre-bound delivery event (runAIH, runHost) calls it.
	handler Handler
}

// Handler is invoked in kernel-event context when a message's
// processing completes; at is the completion time.
type Handler func(at sim.Time, m *Message)

// BoardFilter is a board-resident screening handler that runs on the
// receive processor before host delivery of an op it is installed for.
// It returns true when it consumed the message — typically by replying
// from board memory via SendAt — in which case the host path is skipped
// entirely: no payload DMA, no free-queue descriptor, no notification,
// no host cycles. Returning false falls through to the registered
// handler on the normal path, with the screening cost already paid on
// the receive processor.
type BoardFilter func(at sim.Time, m *Message) bool

type handlerEntry struct {
	fn     Handler
	filter BoardFilter
	onNIC  bool
}

// RelStats counts the per-VC go-back-N reliability machinery's
// activity on one board. All fields stay zero on the default lossless
// fabric.
type RelStats struct {
	DropsSeen     uint64   // damaged PDUs discarded on CRC failure
	Retransmits   uint64   // PDUs retransmitted (timeout- or NAK-driven)
	Timeouts      uint64   // retransmit timer expiries with unacked PDUs
	DupDiscards   uint64   // duplicate PDUs discarded by sequence number
	OutOfOrder    uint64   // PDUs past a gap, discarded pending go-back-N
	AcksSent      uint64   // cumulative ACK cells transmitted
	NaksSent      uint64   // NAK cells transmitted
	NaksMuted     uint64   // NAKs ignored while a retransmit was in flight
	MaxWindow     int      `fold:"max"` // high-water mark of unacked PDUs on one VC
	MaxQueued     int      `fold:"max"` // high-water mark of PDUs parked for window space
	RetainedBytes uint64   `fold:"max"` // peak PDU bytes retained in board memory
	RetxCycles    sim.Time // board cycles spent on retransmission work
}

// Stats counts one board's activity.
type Stats struct {
	Sends        uint64
	Receives     uint64
	TxDMAs       uint64
	TxDMABytes   uint64
	RxDMAs       uint64
	RxDMABytes   uint64
	Interrupts   uint64
	Polls        uint64
	FreeConsumed uint64 // free-queue descriptors consumed by arrivals
	AIHRuns      uint64
	FilterServed uint64 // arrivals consumed by a board filter (never reached the host)
	HostHandlers uint64
	FlushCycles  sim.Time
	Rel          RelStats
}

// Board is one node's network interface.
type Board struct {
	kind config.NICKind
	k    *sim.Kernel
	cfg  *config.Config
	node int
	net  *atm.Network
	mem  *memsys.Hierarchy

	bus    sim.Resource // host memory bus (DMA engine side)
	txProc sim.Resource
	rxProc sim.Resource

	// Model-owned components, provisioned by NewBoard. MC is exported
	// for experiment harnesses that read hit ratios; it is nil on
	// boards without a Message Cache.
	MC  *msgcache.Cache
	PF  *pathfinder.Classifier
	ADC *adc.Manager

	// channel is the node's device channel: sends enqueue descriptors
	// on its transmit queue (protection verified there and only
	// there), and host-path arrivals enqueue completions on its
	// receive queue for the poller. Nil on the standard board.
	channel *adc.Channel

	// onBoard says protocol handlers run on the board (the CNI); the
	// device channel above is the model's other property.
	onBoard bool

	// Kind-specific costs in CPU cycles, fixed by provision.
	sendCost        sim.Time // Send: the ADC enqueue or the kernel send path
	handlerSendCost sim.Time // SendAt, control cells and retransmits: 0 on the CNI, sendCost elsewhere
	recvHostCost    sim.Time // host receive path and protocol of a host-handled arrival
	dequeueCost     sim.Time // popping one completion off the receive queue
	pollCost        sim.Time // the CNI's receive-queue poll
	retxBoardCost   sim.Time // firmware bookkeeping per PDU relaunched from the board

	// The CNI's poll/interrupt hybrid: whether the host has been
	// notified before, when, and how close together arrivals must land
	// for it to stay in polling mode.
	pollWindow     sim.Time
	lastHostNotify sim.Time
	haveNotified   bool

	// rel is the per-VC go-back-N reliability layer; nil on the
	// default lossless fabric, so the fault-free paths are untouched.
	rel *reliability

	handlers map[uint32]handlerEntry
	hostProc *sim.Proc

	// aihFn and hostFn are the pre-bound delivery event bodies receive
	// schedules with AtCall, the arriving *Message as argument: an
	// Application Interrupt Handler run and a host-handled arrival.
	// Bound once in NewBoard, so a delivery allocates no closure.
	aihFn  func(any)
	hostFn func(any)

	lastHostDeliver sim.Time // host handlers run in receive-queue order

	Stats Stats
}

// NewBoard builds the board for node and attaches it to the fabric.
func NewBoard(k *sim.Kernel, cfg *config.Config, node int, net *atm.Network, mem *memsys.Hierarchy) *Board {
	b := &Board{
		kind:     cfg.NIC,
		k:        k,
		cfg:      cfg,
		node:     node,
		net:      net,
		mem:      mem,
		handlers: make(map[uint32]handlerEntry),
	}
	b.aihFn = b.runAIH
	b.hostFn = b.runHost
	b.provision()
	if cfg.FaultsEnabled() {
		b.rel = newReliability(b)
	}
	net.Attach(node, b.receive)
	return b
}

// Node reports which node this board serves.
func (b *Board) Node() int { return b.node }

// Kind reports the board variant.
func (b *Board) Kind() config.NICKind { return b.kind }

// --- capability accessors: the upper layers (dsm, collective, rpc,
// experiments) ask the board these instead of switching on the NIC
// kind ---

// HandlersOnBoard reports whether registered handlers may run as
// Application Interrupt Handlers on the board. Protocol state the
// handlers keep (the DSM's probable-owner table, parked requests) then
// lives in board memory too; otherwise the handlers are host code and
// the host pays its protocol processing on every arrival.
func (b *Board) HandlersOnBoard() bool { return b.onBoard }

// UserLevelQueues reports whether the host reaches this board through
// user-space ADC queues.
func (b *Board) UserLevelQueues() bool { return b.channel != nil }

// RecvDequeueCost is the application's cost to pop one completion from
// its receive queue (zero when the kernel hands the data over).
func (b *Board) RecvDequeueCost() sim.Time { return b.dequeueCost }

// WakeDelay is the extra latency before a blocked application thread
// notices a completion (the CNI's receive-queue poll; zero elsewhere).
func (b *Board) WakeDelay() sim.Time { return b.pollCost }

// SetHostProc names the host CPU thread charged for interrupt service
// on this node.
func (b *Board) SetHostProc(p *sim.Proc) { b.hostProc = p }

// MapPages pins [vbase, vbase+bytes) for the board: on a board with a
// Message Cache it installs the V<->P translations in the TLB/RTLB,
// and on a board with a device channel it grants the channel access to
// the region (the enqueue-time protection window). No-op on the
// standard board, which has neither.
func (b *Board) MapPages(vbase uint64, bytes int) {
	if b.MC != nil {
		pb := uint64(b.cfg.PageBytes)
		first, last := vbase/pb, (vbase+uint64(bytes)-1)/pb
		b.MC.MapPages(first, first+PhysPageOffset, int(last-first+1))
	}
	if b.channel != nil {
		b.channel.AddRegion(adc.Region{Base: vbase, Len: uint64(bytes)})
	}
}

// Register installs the handler for protocol operation op. With onNIC
// set on a CNI board the handler is an Application Interrupt Handler:
// it runs on the board's receive processor and the host CPU is never
// involved. On the standard board onNIC is ignored — there is nowhere
// on the board to run user code — and the handler runs on the host
// after an interrupt. An op has one handler: registering it again, by
// either call, panics.
func (b *Board) Register(op uint32, onNIC bool, h Handler) {
	b.RegisterPattern(op, onNIC, h)
}

// RegisterPattern is Register for protocols that demultiplex on more
// than the operation word: it programs one PATHFINDER pattern per
// sub-operation, matching op plus that sub-operation's extra field
// comparisons (e.g. one per collective kind in the Aux word), and h
// serves every one of them. With no sub-operation the pattern is op
// alone. Patterns for the same op share the leading op test in the
// classifier DAG, so the match work grows far slower than the pattern
// count — the PATHFINDER property the paper leans on.
func (b *Board) RegisterPattern(op uint32, onNIC bool, h Handler, subs ...[]pathfinder.Field) {
	if _, ok := b.handlers[op]; ok {
		panic(fmt.Sprintf("nic: node %d registers op %d twice", b.node, op))
	}
	b.handlers[op] = handlerEntry{fn: h, onNIC: onNIC && b.onBoard}
	if len(subs) == 0 {
		subs = [][]pathfinder.Field{nil}
	}
	for _, extra := range subs {
		b.program(op, append(pathfinder.Pattern{{Offset: 0, Mask: 0xffffffff, Value: op}}, extra...))
	}
}

// RegisterFilter installs f as an Application Interrupt Handler that
// screens arrivals for op before host delivery: the KV service uses it
// to answer repeat GETs from responses pinned in the Message Cache.
// The filter runs on the receive processor at AIHHandlerCycles per
// arrival; when it consumes a message the host never learns the
// message existed. On a board that cannot run handlers
// (OSIRIS, standard) the call is a no-op, so callers gate features on
// HandlersOnBoard rather than on board internals. op must already have
// a host handler registered — a filter screens a protocol, it does not
// define one.
func (b *Board) RegisterFilter(op uint32, f BoardFilter) {
	if !b.onBoard {
		return
	}
	e, ok := b.handlers[op]
	if !ok {
		panic(fmt.Sprintf("nic: node %d filter for unregistered op %d", b.node, op))
	}
	if e.onNIC {
		panic(fmt.Sprintf("nic: node %d filter for op %d which already runs on the board", b.node, op))
	}
	e.filter = f
	b.handlers[op] = e
}

// program wires a classification pattern routing to op.
func (b *Board) program(op uint32, pat pathfinder.Pattern) {
	if b.PF == nil {
		return
	}
	if err := b.PF.Program(pat, pathfinder.Value(op)); err != nil {
		panic(fmt.Sprintf("nic: programming PATHFINDER for op %d: %v", op, err))
	}
}

// header writes the classifier-visible header of m into h and returns
// it: the Op, From, To and Aux words, big-endian. It is a pure function
// of those four fields, so no message or packet carries it; the
// receiving board builds it just before classification.
func header(h *[HeaderBytes]byte, m *Message) []byte {
	binary.BigEndian.PutUint32(h[0:], m.Op)
	binary.BigEndian.PutUint32(h[4:], uint32(m.From))
	binary.BigEndian.PutUint32(h[8:], uint32(m.To))
	binary.BigEndian.PutUint32(h[12:], m.Aux)
	return h[:]
}

// packet is the fabric packet that carries m.
func packet(m *Message) atm.Packet {
	return atm.Packet{Src: m.From, Dst: m.To, VCI: vci(m), Size: m.Size, Meta: m}
}

// vci derives the ATM virtual circuit for m (one VC per node pair in
// this cluster, as the OSIRIS connection setup would allocate). The
// source and destination node ids occupy 16-bit lanes of the 32-bit
// VCI, so clusters up to config.MaxNodes nodes — which the fabric
// constructors enforce via config.ValidateNodes — can never collide
// two circuits.
func vci(m *Message) uint32 { return uint32(m.From)<<16 | uint32(m.To) }

// NoteWrite tells the board the host CPU wrote into the page holding
// vaddr. With consistency snooping the bound buffer absorbs the write
// when it reaches the bus; without it the binding must be dropped so a
// stale buffer is never transmitted. (The snoop itself is observed at
// flush time; see Send.)
func (b *Board) NoteWrite(vaddr uint64) {
	if b.MC == nil || b.cfg.ConsistencySnooping {
		return
	}
	b.MC.Invalidate(vaddr)
}

// flushForSend publishes the host's dirty cache lines for m's buffer to
// memory — mandatory on a write-back machine before the board reads or
// serves that memory — and feeds the resulting bus writes to the
// snooper. Returns the CPU cost.
func (b *Board) flushForSend(m *Message) sim.Time {
	if m.VAddr == 0 || m.Size == 0 || m.NoFlush {
		return 0
	}
	return b.FlushBuffer(m.VAddr, m.Size)
}

// FlushBuffer writes the dirty cache lines of [vaddr, vaddr+size) back
// to memory and lets the board snoop the resulting bus writes. The DSM
// layer calls it at releases to keep home memory (and thus the Message
// Cache copies) current; Send calls it implicitly for unflushed
// buffers. It returns the CPU cost, which belongs to the host.
func (b *Board) FlushBuffer(vaddr uint64, size int) sim.Time {
	cost, flushed := b.mem.FlushRange(vaddr, size)
	b.Stats.FlushCycles += cost
	if flushed > 0 && b.MC != nil && b.cfg.ConsistencySnooping {
		// Each flushed line is a memory write the board snoops; per-page
		// granularity is enough for the buffer map.
		pb := uint64(b.cfg.PageBytes)
		for v := vaddr / pb; v <= (vaddr+uint64(size)-1)/pb; v++ {
			b.MC.SnoopWrite((v + PhysPageOffset) * pb)
		}
	}
	return cost
}

// WriteBuffer models the host CPU composing [vaddr, vaddr+size) — the
// KV server filling a response buffer, for example. It charges the
// cache-hierarchy write cost (which the caller advances on its proc)
// and tells the board about the write, page by page, so a bound
// Message Cache copy is refreshed by the snooper at flush time rather
// than transmitted stale.
func (b *Board) WriteBuffer(vaddr uint64, size int) sim.Time {
	if size <= 0 {
		return 0
	}
	cost := b.mem.WriteRange(vaddr, size)
	pb := uint64(b.cfg.PageBytes)
	for v := vaddr / pb; v <= (vaddr+uint64(size)-1)/pb; v++ {
		b.NoteWrite(v * pb)
	}
	return cost
}

// Send transmits m from the calling host processor's context. It
// charges the host-side send cost (cache flush plus ADC enqueue on the
// CNI, flush plus kernel send path on the standard interface) to p,
// schedules the board-side work, and returns the cycles charged so the
// caller can account them as protocol overhead. The send itself is
// asynchronous.
func (b *Board) Send(p *sim.Proc, m *Message) sim.Time {
	var overhead sim.Time
	overhead += b.flushForSend(m)
	if b.channel != nil && m.VAddr != 0 {
		// User-level send: place the buffer descriptor on the device
		// channel's transmit queue. Protection is verified here — and
		// only here — against the regions pinned at setup.
		d := adc.Descriptor{VAddr: m.VAddr, Len: m.Size, Tag: uint64(m.Op)}
		if m.CacheTx {
			d.Flags |= adc.FlagCache
		}
		if err := b.channel.PostTransmit(d); err != nil {
			panic(fmt.Sprintf("nic: node %d transmit rejected: %v", b.node, err))
		}
		m.viaChannel = true
	}
	overhead += b.sendCost
	p.Advance(overhead)
	p.Sync()
	b.transmit(p.Local(), m)
	return overhead
}

// SendAt transmits m from board or handler context at time at. On the
// CNI this is the Application Interrupt Handler reply path and costs
// the host nothing. Elsewhere the "handler" is host code, so the send
// path (kernel or ADC enqueue) and the flush run on — and are charged
// to — the host CPU before the board sees the message.
func (b *Board) SendAt(at sim.Time, m *Message) {
	if b.onBoard {
		b.transmit(at, m)
		return
	}
	cost := b.flushForSend(m) + b.handlerSendCost
	b.penalizeHost(cost)
	b.transmit(at+cost, m)
}

// transmit is the board transmit processor's entry point: it consumes
// the device-channel descriptor, and hands the message to the
// reliability layer (faulty fabric) or straight to launch (the
// default lossless fabric).
func (b *Board) transmit(at sim.Time, m *Message) {
	b.Stats.Sends++
	if m.viaChannel {
		// The transmit processor consumes the descriptor the
		// application enqueued; the queues are FIFO on both sides, so
		// a mismatch here means the shared-queue protocol broke.
		d, ok := b.channel.Transmit.Pop()
		if !ok || d.VAddr != m.VAddr {
			panic(fmt.Sprintf("nic: node %d transmit queue out of sync", b.node))
		}
	}
	if b.rel != nil && m.To != b.node {
		b.rel.send(at, m)
		return
	}
	b.launch(at, m)
}

// launch is the board transmit processor proper: per-packet and
// per-cell segmentation work, the Message Cache probe, and the DMA
// when needed. It hands the fabric m's inline packet, so it panics if
// m was launched before: that packet may still be in flight.
func (b *Board) launch(at sim.Time, m *Message) {
	if m.pkt.Meta == m {
		panic(fmt.Sprintf("nic: node %d launched a message (op %d) twice", b.node, m.Op))
	}
	cells := int64(b.cfg.Cells(m.Size))
	work := b.cfg.NICToCPU(b.cfg.NICPacketTxCycles + b.cfg.NICCellTxCycles*cells)
	_, end := b.txProc.Use(at, work)

	launch := end
	if m.VAddr != 0 && m.Size > 0 {
		hit := false
		if b.MC != nil && b.cfg.TransmitCaching {
			hit = b.MC.LookupTransmit(m.VAddr)
		}
		if !hit {
			_, dmaEnd := b.bus.Use(end, b.cfg.DMACycles(m.Size))
			b.Stats.TxDMAs++
			b.Stats.TxDMABytes += uint64(m.Size)
			if b.MC != nil && b.cfg.TransmitCaching && m.CacheTx {
				b.MC.BindTransmit(m.VAddr)
			}
			launch = dmaEnd
		}
	}

	m.pkt = packet(m)
	b.net.Send(launch, &m.pkt)
}

// receive is the board receive processor, invoked by the fabric at the
// arrival time of a packet's last cell.
func (b *Board) receive(pkt *atm.Packet, at sim.Time) {
	m, ok := pkt.Meta.(*Message)
	if !ok {
		panic("nic: foreign packet on the fabric")
	}
	if b.rel != nil && m.To == b.node && m.From != b.node {
		if !b.rel.admit(pkt, m, at) {
			return
		}
	}
	b.Stats.Receives++
	cells := int64(b.cfg.Cells(m.Size))

	// Reassembly work plus demultiplexing.
	work := b.cfg.NICToCPU(b.cfg.NICPacketRxCycles + b.cfg.NICCellRxCycles*cells)
	entry, registered := b.handlers[m.Op]
	if b.PF != nil {
		var h [HeaderBytes]byte
		v, _, matched := b.PF.Classify(header(&h, m))
		if !matched || uint32(v) != m.Op {
			panic(fmt.Sprintf("nic: PATHFINDER misrouted op %d", m.Op))
		}
		if cells > 1 {
			// Non-first cells route through transient per-VCI flow state.
			b.PF.RouteFragments(int(cells - 1))
		}
		if b.cfg.UseSoftwareClassifer {
			work += b.cfg.NSToCycles(b.cfg.SoftwareClassifyNS)
		} else {
			work += b.cfg.NICToCPU(b.cfg.PathfinderCycles)
		}
	}
	if !registered {
		panic(fmt.Sprintf("nic: node %d has no handler for op %d", b.node, m.Op))
	}
	m.handler = entry.fn
	_, end := b.rxProc.Use(at, work)

	if entry.filter != nil {
		// Board-resident screening AIH: the receive processor pays the
		// handler cost to probe, and on a hit the reply leaves from
		// board memory — the host path below never starts.
		_, end = b.rxProc.Use(end, b.cfg.NICToCPU(b.cfg.AIHHandlerCycles))
		b.Stats.AIHRuns++
		if entry.filter(end, m) {
			b.Stats.FilterServed++
			return
		}
	}

	if entry.onNIC {
		// Application Interrupt Handler: protocol runs on the receive
		// processor; data bound for the host is DMAed first.
		_, end = b.rxProc.Use(end, b.cfg.NICToCPU(b.cfg.AIHHandlerCycles))
		b.Stats.AIHRuns++
		end = b.deliverPayload(end, m)
		b.k.AtCall(end, b.aihFn, m)
		return
	}

	// Host path: deposit data, enqueue the completion on the device
	// channel's receive queue (CNI), then get the host's attention.
	end = b.deliverPayload(end, m)
	if b.channel != nil {
		// An arrival consumes a free-queue buffer when the application
		// has preposted any (the OSIRIS discipline); protocols that
		// name their destination buffers explicitly (the DSM's page
		// fetches) simply do not prepost.
		if _, ok := b.channel.Free.Pop(); ok {
			b.Stats.FreeConsumed++
		}
		ok := b.channel.Receive.Push(adc.Descriptor{
			VAddr: m.DeliverVAddr, Len: m.DeliverBytes, Tag: uint64(m.Op),
		})
		if !ok {
			// A real board would backpressure into the free queue; the
			// notify path below pops each completion when the handler
			// runs, so more queued completions than slots means the
			// host fell unboundedly behind — a bug, not backpressure.
			panic(fmt.Sprintf("nic: node %d receive queue overflow", b.node))
		}
	}
	notify, penalty := b.notify(end)
	// Host receive path and/or protocol processing on the host CPU.
	notify += b.recvHostCost
	penalty += b.recvHostCost
	b.penalizeHost(penalty)
	b.Stats.HostHandlers++
	// The application drains its receive queue in FIFO order, so a
	// later arrival can never be handled before an earlier one even
	// when the earlier one paid an interrupt and the later one only a
	// poll.
	if notify < b.lastHostDeliver {
		notify = b.lastHostDeliver
	}
	b.lastHostDeliver = notify
	b.k.AtCall(notify, b.hostFn, m)
}

// runAIH is the delivery event of an Application Interrupt Handler,
// at the end of its receive-processor work.
func (b *Board) runAIH(arg any) {
	m := arg.(*Message)
	m.handler(b.k.Now(), m)
}

// runHost is the delivery event of a host-handled arrival. The
// application pops its completion from the user-level receive queue as
// its handler runs (the dequeue cost is the caller-visible
// RecvDequeueCost); deliveries are FIFO, so the pop order matches the
// push order in receive.
func (b *Board) runHost(arg any) {
	m := arg.(*Message)
	if b.channel != nil {
		b.channel.PollReceive()
	}
	m.handler(b.k.Now(), m)
}

// deliverPayload DMAs m's payload to host memory when the message
// carries any, returning the completion time, and binds the arriving
// page into the Message Cache when asked to (receive caching).
func (b *Board) deliverPayload(at sim.Time, m *Message) sim.Time {
	if m.DeliverBytes <= 0 || m.DeliverVAddr == 0 {
		return at
	}
	_, dmaEnd := b.bus.Use(at, b.cfg.DMACycles(m.DeliverBytes))
	b.Stats.RxDMAs++
	b.Stats.RxDMABytes += uint64(m.DeliverBytes)
	if b.MC != nil && b.cfg.ReceiveCaching && m.CacheRx {
		b.MC.BindReceive(m.DeliverVAddr)
	}
	return dmaEnd
}

// PenalizeHost charges cycles of asynchronous host-side work (e.g. a
// kernel-initiated cache flush before a transfer) to the host CPU;
// protocol layers use it for costs they incur on the host outside the
// normal send/receive paths.
func (b *Board) PenalizeHost(c sim.Time) { b.penalizeHost(c) }

// penalizeHost charges cycles of asynchronous service to the host CPU
// if it is actually computing; a blocked (idle) CPU absorbs the work
// for free, but the latency is still paid by the notify path.
func (b *Board) penalizeHost(c sim.Time) {
	if c > 0 && b.hostProc != nil && !b.hostProc.Blocked() && !b.hostProc.Finished() {
		b.hostProc.AddPenalty(c)
	}
}

// PostFree preposts a free receive buffer on the device channel (the
// application-side half of the free queue). No-op on the standard
// board.
func (b *Board) PostFree(vaddr uint64, n int) {
	if b.channel == nil {
		return
	}
	if err := b.channel.PostFree(adc.Descriptor{VAddr: vaddr, Len: n}); err != nil {
		panic(fmt.Sprintf("nic: node %d PostFree: %v", b.node, err))
	}
}

// TryPostFree is PostFree reporting queue-full and protection errors
// to the caller instead of panicking, for protocols that manage the
// free queue as a backpressure signal. No-op (nil) on the standard
// board.
func (b *Board) TryPostFree(vaddr uint64, n int) error {
	if b.channel == nil {
		return nil
	}
	return b.channel.PostFree(adc.Descriptor{VAddr: vaddr, Len: n})
}

// Channel exposes the node's device channel for protocol layers that
// poll the receive queue or read the free-queue depth (nil on the
// standard board).
func (b *Board) Channel() *adc.Channel { return b.channel }

// FreeDepth reports the number of preposted free-queue descriptors
// (0 on the standard board).
func (b *Board) FreeDepth() int {
	if b.channel == nil {
		return 0
	}
	return b.channel.Free.Len()
}

// Bus exposes the node's memory-bus resource (cluster wiring and
// tests).
func (b *Board) Bus() *sim.Resource { return &b.bus }

// HitRatio reports the Message Cache transmit hit ratio in percent
// (0 for the standard board).
func (b *Board) HitRatio() float64 {
	if b.MC == nil {
		return 0
	}
	return b.MC.Stats.HitRatio()
}
