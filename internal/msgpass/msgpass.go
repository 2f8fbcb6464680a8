// Package msgpass is the message-passing paradigm on the CNI (the
// paper's third design goal: "efficiently supports both the message
// passing and distributed shared memory paradigms for generality in
// programming"). It provides
//
//   - Active Messages (the paper calls Application Interrupt Handlers
//     "an extension of the Active Message Principle to the network
//     interface"): small typed handlers that run on the receiving
//     CNI board — or, on the standard interface, on the host behind an
//     interrupt;
//   - matched send/receive over tags, with the blocking receive the
//     applications the paper's introduction motivates expect; and
//   - the collectives parallel programs are built from: a
//     dissemination barrier and an all-reduce, both implemented purely
//     with messages.
//
// Everything runs on the machine the DSM runs on: a Fabric is a
// cluster.Cluster — the same boards, fabric, collective engine, kernel
// shards, run loop and deadlock check — with an Endpoint on every node.
package msgpass

import (
	"fmt"
	"math"

	"cni/internal/cluster"
	"cni/internal/collective"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/nic"
	"cni/internal/sim"
)

// ReduceOp re-exports the collective engine's combining operators so
// message-passing programs need not import internal/collective.
type ReduceOp = collective.ReduceOp

// Combining operators for AllReduceF64 and ReduceF64.
const (
	OpSum  = collective.OpSum
	OpProd = collective.OpProd
	OpMin  = collective.OpMin
	OpMax  = collective.OpMax
)

// Protocol operations. Data messages carry the match tag in the
// payload; active messages are dispatched straight to their handler id.
const (
	opData uint32 = 0x300
	opAM   uint32 = 0x400 // + handler id
)

// HeapBase is the virtual address of each node's send/receive heap.
const HeapBase uint64 = 1 << 28

// HeapBytes is the pinned heap per node.
const HeapBytes = 1 << 20

// Packet is one matched message as the receiver sees it.
type Packet struct {
	From  int
	Tag   int
	Bytes int
	Data  []uint64 // inline payload words (nil for buffer-only transfers)
}

// AMContext is what an active-message handler runs with: where the
// message came from and the board-side reply path (handlers run in
// board context — on the CNI, on the receive processor — and must not
// use the host-side Endpoint.Send).
type AMContext struct {
	Ep   *Endpoint
	From int
	At   sim.Time
}

// Reply invokes handler id on the sender, from board context.
func (c AMContext) Reply(id int, args ...uint64) {
	c.Ep.postAM(c.At, c.From, id, args)
}

// AMHandler is an active-message handler; args are the message's
// inline words.
type AMHandler func(c AMContext, args []uint64)

// Fabric is a message-passing cluster.
type Fabric struct {
	// Cluster is the machine the endpoints run on; its Net carries the
	// fabric counters, folded at the end of Run.
	Cluster *cluster.Cluster
	Boards  []*nic.Board
	eps     []*Endpoint
}

// Endpoint is one node's message-passing interface.
type Endpoint struct {
	f    *Fabric
	node int
	proc *sim.Proc

	inbox   map[int][]*Packet // by tag
	waitTag int
	waiting bool
	got     *Packet

	handlers map[int]AMHandler
	coll     *collective.Node

	// collSeq sequences the host-message ring baseline so that a fast
	// node's next reduce cannot match a slow node's current one. (The
	// engine-backed collectives sequence themselves.)
	collSeq int

	// Stats
	Sent     uint64
	Received uint64
	AMRuns   uint64
}

func f64bits(v float64) uint64 { return math.Float64bits(v) }

func f64from(b uint64) float64 { return math.Float64frombits(b) }

// NewFabric builds an n-node message-passing cluster. The config and
// node count are user input, so an invalid combination is an error,
// not a panic.
func NewFabric(cfg *config.Config, n int) (*Fabric, error) {
	c, err := cluster.New(cfg, n, nil)
	if err != nil {
		return nil, fmt.Errorf("msgpass: %w", err)
	}
	f := &Fabric{Cluster: c}
	for i, node := range c.Nodes {
		b := node.Board
		b.MapPages(HeapBase, HeapBytes)
		f.Boards = append(f.Boards, b)
		ep := &Endpoint{
			f: f, node: i,
			inbox:    make(map[int][]*Packet),
			handlers: make(map[int]AMHandler),
			coll:     c.Coll.Node(i),
		}
		f.eps = append(f.eps, ep)
		ep.install(b)
	}
	return f, nil
}

// install registers the endpoint's protocol handlers on its board and
// preposts free receive buffers out of the heap (the free-queue half
// of the device-channel discipline).
func (ep *Endpoint) install(b *nic.Board) {
	for i := 0; i < 64; i++ {
		b.PostFree(HeapBase+uint64(i)*4096, 4096)
	}
	// Matched data messages go to the host: the application owns them.
	b.Register(opData, false, func(at sim.Time, m *nic.Message) {
		pkt := m.Payload.(*Packet)
		ep.Received++
		if ep.waiting && ep.waitTag == pkt.Tag {
			ep.waiting = false
			ep.got = pkt
			ep.proc.WakeAt(at)
			return
		}
		ep.inbox[pkt.Tag] = append(ep.inbox[pkt.Tag], pkt)
	})
}

// Run executes body on every node's processor with Cluster.Run, which
// panics with a per-node dump if a node never finishes (a deadlocked
// receive). It returns the wall time. It may be called once per
// Fabric.
func (f *Fabric) Run(body func(ep *Endpoint)) sim.Time {
	return f.Cluster.Run(func(w *dsm.Worker) {
		ep := f.eps[w.Node()]
		ep.proc = w.Proc()
		body(ep)
	}).Time
}

// Node reports this endpoint's rank; Nodes the cluster size.
func (ep *Endpoint) Node() int  { return ep.node }
func (ep *Endpoint) Nodes() int { return len(ep.f.eps) }

// Proc exposes the simulated processor (for Compute charges).
func (ep *Endpoint) Proc() *sim.Proc { return ep.proc }

// Compute charges cycles of application computation.
func (ep *Endpoint) Compute(c sim.Time) { ep.proc.Advance(c) }

// Send transmits bytes payload bytes plus the inline words to (to,
// tag). The payload is modeled as living in the node's pinned heap, so
// repeated sends of the same buffer hit the Message Cache — message-
// passing programs get the transmit-caching benefit exactly as
// Section 2.2 describes. Asynchronous.
func (ep *Endpoint) Send(to, tag, bytes int, inline ...uint64) {
	if to < 0 || to >= ep.Nodes() {
		panic(fmt.Sprintf("msgpass: send to node %d of %d", to, ep.Nodes()))
	}
	ep.Sent++
	pkt := &Packet{From: ep.node, Tag: tag, Bytes: bytes, Data: inline}
	m := &nic.Message{
		From: ep.node, To: to, Op: opData,
		Size:    nic.HeaderBytes + 8 + bytes + 8*len(inline),
		Payload: pkt,
	}
	if bytes > 0 {
		// Buffer transfers stream from the heap slot for this tag.
		m.VAddr = HeapBase + uint64(tag%64)*uint64(ep.f.Cluster.Cfg.PageBytes)
		m.CacheTx = true
		m.DeliverVAddr = m.VAddr
		m.DeliverBytes = bytes
	}
	ep.f.Boards[ep.node].Send(ep.proc, m)
}

// Recv blocks until a message with the given tag arrives and returns
// it. Matching is by tag only (any source), in arrival order.
func (ep *Endpoint) Recv(tag int) *Packet {
	if q := ep.inbox[tag]; len(q) > 0 {
		pkt := q[0]
		ep.inbox[tag] = q[1:]
		return pkt
	}
	ep.waitTag = tag
	ep.waiting = true
	ep.proc.Block()
	pkt := ep.got
	ep.got = nil
	if pkt == nil {
		panic("msgpass: woke without a packet")
	}
	return pkt
}

// RegisterAM installs handler id. On the CNI the handler is an
// Application Interrupt Handler: it runs on the receive processor
// without involving the host CPU.
func (ep *Endpoint) RegisterAM(id int, h AMHandler) {
	if _, dup := ep.handlers[id]; dup {
		panic(fmt.Sprintf("msgpass: AM handler %d already registered", id))
	}
	ep.handlers[id] = h
	op := opAM + uint32(id)
	ep.f.Boards[ep.node].Register(op, true, func(at sim.Time, m *nic.Message) {
		pkt := m.Payload.(*Packet)
		ep.AMRuns++
		h(AMContext{Ep: ep, From: pkt.From, At: at}, pkt.Data)
	})
}

// postAM ships an active message from board context at time at.
func (ep *Endpoint) postAM(at sim.Time, to, id int, args []uint64) {
	ep.Sent++
	pkt := &Packet{From: ep.node, Tag: id, Data: args}
	ep.f.Boards[ep.node].SendAt(at, &nic.Message{
		From: ep.node, To: to, Op: opAM + uint32(id),
		Size:    nic.HeaderBytes + 8*len(args),
		Payload: pkt,
	})
}

// SendAM invokes active-message handler id on node to with the given
// argument words. Asynchronous; the handler runs on the remote board.
func (ep *Endpoint) SendAM(to, id int, args ...uint64) {
	ep.Sent++
	pkt := &Packet{From: ep.node, Tag: id, Data: args}
	ep.f.Boards[ep.node].Send(ep.proc, &nic.Message{
		From: ep.node, To: to, Op: opAM + uint32(id),
		Size:    nic.HeaderBytes + 8*len(args),
		Payload: pkt,
	})
}

// Barrier blocks until every node has entered the barrier. It runs on
// the collective engine: as Application Interrupt Handlers combining in
// board memory on the CNI (Config.NICCollectives), through host
// interrupts and handlers otherwise. The engine sequences episodes
// itself, so successive barriers need no distinguishing tag.
func (ep *Endpoint) Barrier() {
	ep.coll.Barrier(ep.proc)
}

// AllReduceF64 combines one float64 from every node with op and
// returns the result on all of them, in O(log n) rounds on the
// collective engine (dissemination exchange for power-of-two clusters,
// binomial reduce+broadcast otherwise).
func (ep *Endpoint) AllReduceF64(v float64, op ReduceOp) float64 {
	return ep.coll.AllReduce(ep.proc, v, op)
}

// ReduceF64 combines one float64 from every node with op at root; the
// returned value is meaningful only there.
func (ep *Endpoint) ReduceF64(root int, v float64, op ReduceOp) float64 {
	return ep.coll.Reduce(ep.proc, root, v, op)
}

// BroadcastF64 distributes root's v to every node.
func (ep *Endpoint) BroadcastF64(root int, v float64) float64 {
	return ep.coll.Broadcast(ep.proc, root, v)
}

// CollStats reports this node's collective-engine counters.
func (ep *Endpoint) CollStats() collective.Stats {
	return ep.coll.Stats
}

// AllReduceF64Ring is the pre-engine baseline all-reduce — accumulate
// at rank 0 over tagged host messages, then broadcast — kept as the
// host-side O(n) comparison point for experiment FC1. tagBase
// namespaces its message tags.
func (ep *Endpoint) AllReduceF64Ring(tagBase int, v float64, op func(a, b float64) float64) float64 {
	n := ep.Nodes()
	ep.collSeq++
	base := tagBase + 64*ep.collSeq
	if ep.node == 0 {
		acc := v
		for i := 1; i < n; i++ {
			got := ep.Recv(base)
			acc = op(acc, f64from(got.Data[0]))
		}
		for i := 1; i < n; i++ {
			ep.Send(i, base+1, 0, f64bits(acc))
		}
		return acc
	}
	ep.Send(0, base, 0, f64bits(v))
	return f64from(ep.Recv(base + 1).Data[0])
}
