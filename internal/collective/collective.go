// Package collective is a collective-operations engine — barrier,
// broadcast, reduce, all-reduce — that runs its combining logic where
// the network interface allows. On the CNI with Config.NICCollectives
// set, every schedule message is classified by PATHFINDER into an
// Application Interrupt Handler: arriving contributions are combined in
// board memory by the receive processor and forwarded along the
// schedule without crossing the host bus or waking the host CPU — the
// NIC-based collective protocol of Yu et al. (PAPERS.md) expressed in
// the CNI's AIH mechanism. On the standard interface (or with the knob
// off) the *identical* schedule runs through host interrupts and host
// protocol handlers, so the two interfaces can be compared on exactly
// the same communication pattern (experiment FC1).
//
// Two schedules are provided: a dissemination exchange (shortest
// critical path, ceil(log2 n) rounds) and a binomial tree (reduce up,
// broadcast down). Barriers always disseminate and rooted operations
// always use the tree; the dissemination all-reduce is only
// algebraically valid for power-of-two node counts and falls back to
// the tree otherwise.
//
// Nodes must issue their collectives in the same program order (the
// SPMD discipline): episodes match across the cluster by a per-node
// sequence number, and a kind or root mismatch between the arrivals of
// one episode panics rather than mis-combining.
package collective

import (
	"fmt"

	"cni/internal/config"
	"cni/internal/nic"
	"cni/internal/pathfinder"
	"cni/internal/sim"
	"cni/internal/trace"
)

// Protocol operations. Contributions travel "up" the schedule (or
// around the dissemination exchange); results travel back "down" a
// tree. One PATHFINDER pattern is programmed per (operation, kind)
// pair — the patterns share the op test as a DAG prefix, so a board
// serving every collective kind still classifies in near-constant
// work.
const (
	opContrib uint32 = 0x500
	opResult  uint32 = 0x501
)

// Kind is the collective operation type. It is carried in the header's
// Aux word so the classifier, not the handler, demultiplexes it.
type Kind int

const (
	KindBarrier Kind = iota
	KindBroadcast
	KindReduce
	KindAllReduce
	kindCount
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBarrier:
		return "barrier"
	case KindBroadcast:
		return "broadcast"
	case KindReduce:
		return "reduce"
	case KindAllReduce:
		return "all-reduce"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ReduceOp is the combining operator. It is a fixed enumeration, not a
// closure: the handler runs in board firmware, which can apply a named
// operator but cannot be shipped arbitrary host code.
type ReduceOp int

const (
	OpSum ReduceOp = iota
	OpProd
	OpMin
	OpMax
)

// String implements fmt.Stringer.
func (o ReduceOp) String() string {
	switch o {
	case OpSum:
		return "sum"
	case OpProd:
		return "prod"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(o))
	}
}

func (o ReduceOp) apply(a, b float64) float64 {
	switch o {
	case OpSum:
		return a + b
	case OpProd:
		return a * b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		panic(fmt.Sprintf("collective: unknown ReduceOp %d", int(o)))
	}
}

// Done is invoked (in board or kernel-event context) when a node's
// episode releases: val is the collective result (the fold for reduce
// at its root and for all-reduce, the root's value for broadcast,
// meaningless for barrier) and payload the merged opaque payload.
type Done func(at sim.Time, val float64, payload any)

// contrib is the engine's wire message (nic.Message payload).
type contrib struct {
	kind    Kind
	seq     uint64
	root    int
	from    int
	round   int // dissemination round; -1 on tree edges
	val     float64
	payload any
	result  bool // downward tree result rather than a contribution
}

// Engine is the cluster-wide collective engine: one Node per board, all
// sharing the configuration.
type Engine struct {
	cfg   *config.Config
	nodes []*Node
	log   *trace.Log
}

// NewEngine returns an engine for the cluster described by cfg.
func NewEngine(cfg *config.Config) *Engine {
	return &Engine{cfg: cfg}
}

// EnableTrace routes episode events into l.
func (e *Engine) EnableTrace(l *trace.Log) { e.log = l }

// Size reports how many nodes are attached.
func (e *Engine) Size() int { return len(e.nodes) }

// Node returns the engine node for rank i.
func (e *Engine) Node(i int) *Node { return e.nodes[i] }

// Attach registers the engine's protocol on b and returns the per-node
// handle. Boards must be attached in rank order, before the simulation
// starts.
func (e *Engine) Attach(b *nic.Board) *Node {
	if b.Node() != len(e.nodes) {
		panic(fmt.Sprintf("collective: attach node %d out of order (have %d)", b.Node(), len(e.nodes)))
	}
	n := &Node{
		eng:   e,
		node:  b.Node(),
		board: b,
		eps:   make(map[uint64]*episode),
		aih:   e.cfg.NICCollectives && b.HandlersOnBoard(),
	}
	// One pattern per (op, kind): the kind lives in the Aux word at
	// header offset 12, so the board demultiplexes collective kinds
	// without the handler inspecting the message.
	for k := Kind(0); k < kindCount; k++ {
		f := []pathfinder.Field{{Offset: 12, Mask: 0xff000000, Value: uint32(k) << 24}}
		b.RegisterPattern(opContrib, f, n.aih, n.onMessage)
		b.RegisterPattern(opResult, f, n.aih, n.onMessage)
	}
	e.nodes = append(e.nodes, n)
	return n
}

// Node is one rank's collective engine state. On the CNI it models the
// episode table in board memory; on the standard interface the same
// table lives in the host protocol layer.
type Node struct {
	eng   *Engine
	node  int
	board *nic.Board
	aih   bool // handlers run on the board (CNI + NICCollectives)

	seq         uint64 // last locally-begun episode
	doneThrough uint64 // highest completed episode (bug guard)
	eps         map[uint64]*episode

	// Payload hooks: merge combines two opaque payloads (it must be
	// commutative and associative, and idempotent when barriers ride
	// the dissemination schedule on a non-power-of-two cluster, where
	// the same contribution can be merged through more than one path);
	// bytes reports a payload's wire size for timing.
	merge func(a, b any) any
	bytes func(p any) int

	Stats Stats
}

// episode is one collective instance in flight at one node.
type episode struct {
	kind Kind
	seq  uint64
	root int

	began     bool
	completed bool
	startAt   sim.Time
	op        ReduceOp
	val       float64
	payload   any
	done      Done

	// Dissemination state.
	dissem bool
	round  int              // next round to combine
	sent0  bool             // round-0 contribution transmitted
	got    map[int]*contrib // round -> parked contribution

	// Tree state.
	parent   int
	children []int
	kids     map[int]*contrib // child rank -> parked contribution
	upSent   bool
	downSent bool

	resultReady   bool
	resultVal     float64
	resultPayload any
}

// SetPayload installs the opaque-payload hooks (see Node fields).
func (n *Node) SetPayload(merge func(a, b any) any, bytes func(p any) int) {
	n.merge, n.bytes = merge, bytes
}

// Board exposes the node's board (tests, stats).
func (n *Node) Board() *nic.Board { return n.board }

// Begin enters the node into its next collective episode without
// blocking: done fires when the episode releases locally. The caller
// must be running on p (host context). All nodes must call Begin with
// the same kind/root/op sequence; val and payload are this rank's
// contribution.
//
// The host-side cost is one descriptor enqueue on the CNI (the board
// runs the schedule from there) or the protocol setup path on the
// standard interface (whose kernel also pays per forwarded message —
// see send).
func (n *Node) Begin(p *sim.Proc, kind Kind, root int, val float64, op ReduceOp, payload any, done Done) {
	cfg := n.eng.cfg
	if root < 0 || root >= len(n.eng.nodes) {
		panic(fmt.Sprintf("collective: root %d of %d nodes", root, len(n.eng.nodes)))
	}
	if n.board.UserLevelQueues() {
		p.Advance(cfg.NSToCycles(cfg.ADCSendNS))
	} else {
		p.Advance(cfg.NSToCycles(cfg.HostProtocolNS))
	}
	p.Sync()

	n.seq++
	ep := n.episode(kind, n.seq, root)
	if ep.began {
		panic(fmt.Sprintf("collective: node %d began episode %d twice", n.node, ep.seq))
	}
	ep.began = true
	ep.startAt = p.Local()
	ep.op = op
	ep.val = val
	ep.payload = payload
	ep.done = done
	n.Stats.Episodes++
	n.eng.log.Addf(p.Local(), n.node, "coll", "%s seq=%d begin root=%d", kind, ep.seq, root)
	n.step(ep, p.Local())
}

// episode returns the live episode for seq, creating it from the
// message or Begin parameters when this is the first sight of it. An
// episode created by an early arrival parks contributions until the
// local Begin.
func (n *Node) episode(kind Kind, seq uint64, root int) *episode {
	if ep := n.eps[seq]; ep != nil {
		if ep.kind != kind || ep.root != root {
			panic(fmt.Sprintf("collective: node %d episode %d mismatch: %s/root=%d vs %s/root=%d (collectives must be issued in the same order on every node)",
				n.node, seq, ep.kind, ep.root, kind, root))
		}
		return ep
	}
	if seq <= n.doneThrough {
		panic(fmt.Sprintf("collective: node %d message for completed episode %d", n.node, seq))
	}
	size := len(n.eng.nodes)
	ep := &episode{kind: kind, seq: seq, root: root, parent: -1}
	ep.dissem = useDissem(kind, size)
	if ep.dissem {
		ep.got = make(map[int]*contrib)
	} else {
		ep.parent = TreeParent(n.node, root, size)
		ep.children = TreeChildren(n.node, root, size)
		ep.kids = make(map[int]*contrib)
	}
	n.eps[seq] = ep
	return ep
}

// onMessage is the protocol handler — an Application Interrupt Handler
// on the CNI (receive-processor context, host asleep), a host handler
// behind an interrupt or poll otherwise.
func (n *Node) onMessage(at sim.Time, m *nic.Message) {
	c := m.Payload.(*contrib)
	if n.aih {
		n.Stats.BoardCombined++
	} else {
		n.Stats.HostHandled++
		if n.board.HandlersOnBoard() {
			// On a CNI with collectives left on the host, the protocol
			// code itself still runs on the host CPU (the other boards'
			// receive paths charge this inside nic).
			cost := n.eng.cfg.NSToCycles(n.eng.cfg.HostProtocolNS)
			n.board.PenalizeHost(cost)
			at += cost
		}
	}
	ep := n.episode(c.kind, c.seq, c.root)
	if c.result {
		ep.resultReady = true
		ep.resultVal = c.val
		ep.resultPayload = c.payload
	} else if ep.dissem {
		ep.got[c.round] = c
	} else {
		ep.kids[c.from] = c
	}
	n.step(ep, at)
}

// step advances the episode's schedule as far as the parked state
// allows; it is called after every local Begin and every arrival.
func (n *Node) step(ep *episode, at sim.Time) {
	if ep.completed {
		return
	}
	if ep.dissem {
		n.stepDissem(ep, at)
	} else if ep.kind == KindBroadcast {
		n.stepBroadcast(ep, at)
	} else {
		n.stepUpDown(ep, at)
	}
}

// stepDissem runs the dissemination exchange: in round r the node sends
// its accumulated contribution to rank+2^r and combines the one from
// rank-2^r. Combining is strictly in round order, so the fold order —
// and therefore the floating-point result — is a pure function of the
// schedule, identical on NIC and host paths.
func (n *Node) stepDissem(ep *episode, at sim.Time) {
	if !ep.began {
		return // contributions park until the local enter
	}
	size := len(n.eng.nodes)
	rounds := DissemRounds(size)
	if !ep.sent0 && rounds > 0 {
		ep.sent0 = true
		n.send(at, DissemTo(n.node, 0, size), ep, 0, ep.val, ep.payload, false)
	}
	for ep.round < rounds {
		c := ep.got[ep.round]
		if c == nil {
			return
		}
		delete(ep.got, ep.round)
		ep.val = ep.op.apply(ep.val, c.val)
		ep.payload = n.mergePayload(ep.payload, c.payload)
		ep.round++
		if ep.round < rounds {
			n.send(at, DissemTo(n.node, ep.round, size), ep, ep.round, ep.val, ep.payload, false)
		}
	}
	n.complete(ep, at)
}

// stepBroadcast runs the downward tree only: the root's value flows to
// the children; an interior board forwards before (and regardless of
// whether) its own host has entered the episode.
func (n *Node) stepBroadcast(ep *episode, at sim.Time) {
	if n.node == ep.root && ep.began && !ep.resultReady {
		ep.resultReady = true
		ep.resultVal = ep.val
		ep.resultPayload = ep.payload
	}
	if ep.resultReady && !ep.downSent {
		ep.downSent = true
		for _, c := range ep.children {
			n.send(at, c, ep, -1, ep.resultVal, ep.resultPayload, true)
		}
	}
	if ep.resultReady && ep.began {
		n.complete(ep, at)
	}
}

// stepUpDown runs the tree reduction (and, for barrier and all-reduce,
// the broadcast back down). Child contributions are parked and folded
// only once all have arrived — own value first, then children in
// ascending relative rank — so the fold order is deterministic no
// matter the arrival order, and NIC and host runs produce bit-identical
// floating-point results.
func (n *Node) stepUpDown(ep *episode, at sim.Time) {
	if !ep.upSent && ep.began {
		for _, c := range ep.children {
			if ep.kids[c] == nil {
				return
			}
		}
		acc, pay := ep.val, ep.payload
		for _, c := range ep.children {
			k := ep.kids[c]
			acc = ep.op.apply(acc, k.val)
			pay = n.mergePayload(pay, k.payload)
		}
		ep.val, ep.payload = acc, pay
		ep.upSent = true
		if ep.parent >= 0 {
			n.send(at, ep.parent, ep, -1, acc, pay, false)
			if ep.kind == KindReduce {
				// Off-root ranks are done once their subtree is folded
				// away; only the root holds the result.
				ep.resultVal, ep.resultPayload = acc, pay
				n.complete(ep, at)
				return
			}
		} else {
			ep.resultReady = true
			ep.resultVal, ep.resultPayload = acc, pay
			if ep.kind == KindReduce {
				n.complete(ep, at)
				return
			}
		}
	}
	if ep.resultReady && !ep.downSent {
		ep.downSent = true
		for _, c := range ep.children {
			n.send(at, c, ep, -1, ep.resultVal, ep.resultPayload, true)
		}
	}
	if ep.resultReady && ep.began {
		n.complete(ep, at)
	}
}

// complete releases the episode locally: record the latency, retire the
// state, and fire the continuation.
func (n *Node) complete(ep *episode, at sim.Time) {
	if ep.completed {
		return
	}
	ep.completed = true
	n.Stats.Latency.Add(at - ep.startAt)
	delete(n.eps, ep.seq)
	if ep.seq > n.doneThrough {
		n.doneThrough = ep.seq
	}
	n.eng.log.Addf(at, n.node, "coll", "%s seq=%d done val=%g lat=%d", ep.kind, ep.seq, ep.resultValue(), at-ep.startAt)
	if ep.done != nil {
		ep.done(at, ep.resultValue(), ep.resultOrAcc())
	}
}

func (ep *episode) resultValue() float64 {
	if ep.dissem {
		return ep.val
	}
	return ep.resultVal
}

func (ep *episode) resultOrAcc() any {
	if ep.dissem {
		return ep.payload
	}
	return ep.resultPayload
}

// send transmits one schedule message from board/handler context. On
// the CNI this is free for the host (the board forwards out of its own
// memory); on the standard interface nic.Board.SendAt charges the
// kernel send path to the host CPU, which is exactly the asymmetry FC1
// measures.
func (n *Node) send(at sim.Time, to int, ep *episode, round int, val float64, payload any, result bool) {
	op := opContrib
	if result {
		op = opResult
	}
	c := &contrib{
		kind: ep.kind, seq: ep.seq, root: ep.root, from: n.node,
		round: round, val: val, payload: payload, result: result,
	}
	n.Stats.Msgs++
	n.board.SendAt(at, &nic.Message{
		From: n.node, To: to, Op: op,
		Aux:     aux(ep.kind, ep.seq),
		Size:    nic.HeaderBytes + 16 + n.payloadBytes(payload),
		Payload: c,
	})
}

// aux packs the classifier's second word: kind in the top byte (what
// the per-kind patterns match) and the low bits of the sequence number
// for wire-level debugging.
func aux(k Kind, seq uint64) uint32 {
	return uint32(k)<<24 | uint32(seq&0xffffff)
}

func (n *Node) mergePayload(a, b any) any {
	if b == nil {
		return a
	}
	if a == nil {
		return b
	}
	if n.merge == nil {
		panic(fmt.Sprintf("collective: node %d payload without a merge hook", n.node))
	}
	return n.merge(a, b)
}

func (n *Node) payloadBytes(p any) int {
	if p == nil || n.bytes == nil {
		return 0
	}
	return n.bytes(p)
}

// --- Blocking wrappers (message-passing applications) ---

// Barrier blocks p until every node has entered the barrier.
func (n *Node) Barrier(p *sim.Proc) {
	n.run(p, KindBarrier, 0, 0, OpSum)
}

// AllReduce combines one float64 per node with op and returns the
// result on every node.
func (n *Node) AllReduce(p *sim.Proc, v float64, op ReduceOp) float64 {
	return n.run(p, KindAllReduce, 0, v, op)
}

// Reduce combines one float64 per node with op; the result is
// meaningful only at root (other ranks see their subtree's partial
// fold).
func (n *Node) Reduce(p *sim.Proc, root int, v float64, op ReduceOp) float64 {
	return n.run(p, KindReduce, root, v, op)
}

// Broadcast distributes root's v to every node.
func (n *Node) Broadcast(p *sim.Proc, root int, v float64) float64 {
	return n.run(p, KindBroadcast, root, v, OpSum)
}

// run is Begin + block-until-release. On the CNI the host learns of the
// release by finding the completion descriptor on its next poll and
// dequeues it at user level; on an interrupt-driven interface the
// waking handler already paid the notification, and boards with
// user-level queues still pay the receive-queue pop.
func (n *Node) run(p *sim.Proc, kind Kind, root int, v float64, op ReduceOp) float64 {
	wake := n.board.WakeDelay()
	var res float64
	n.Begin(p, kind, root, v, op, nil, func(at sim.Time, val float64, _ any) {
		res = val
		p.WakeAt(at + wake)
	})
	p.Block()
	if deq := n.board.RecvDequeueCost(); deq > 0 {
		p.Advance(deq)
	}
	p.Sync()
	return res
}
