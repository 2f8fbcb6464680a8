// Package atm models the cluster interconnect of the CNI paper: a
// 622 Mb/s (STS-12) ATM fabric carrying 53-byte cells with 48-byte
// payloads. The paper's fabric is a single 32-port banyan switch with
// 500 ns latency; via internal/topo the same model also runs on routed
// multi-switch graphs (Clos/fat-tree, 3D torus) at 128-1024+ nodes.
//
// Messages are simulated at message granularity with cell-accurate
// costs: a b-byte packet occupies its source link for the serialization
// time of ceil(b/48) full cells, then cut-through pipelines along its
// route — at every switch the head cell arrives one cell-time plus
// propagation plus switch latency after the message won the previous
// port, and the message occupies each output port for its full
// serialization time, queuing behind other traffic converging there.
// On the single output-queued banyan the only such port is the
// destination's, which reproduces the paper's timings exactly; on
// multi-switch fabrics intermediate hops contend too (Stats.LinkWaits).
// Per-cell firmware costs (segmentation and reassembly work) belong to
// the NIC model, not to the fabric, and are charged in package nic.
//
// Table 5's "mythical networking technology ... with unlimited cell
// size" is config.UnrestrictedCell: one cell carries the whole message
// and the per-cell costs collapse.
package atm

import (
	"cmp"
	"fmt"
	"slices"

	"cni/internal/config"
	"cni/internal/metrics"
	"cni/internal/sim"
	"cni/internal/topo"
)

// Packet is one message in flight between two NICs: its route (Src,
// Dst and the virtual circuit VCI), Size, the modeled wire size in bytes
// before cell overhead, and Meta, the protocol object it carries. No
// header or payload byte is materialized: the receiving board rebuilds
// the header PATHFINDER classifies on from Meta (package nic), so a
// packet is 48 bytes.
type Packet struct {
	Src int
	Dst int
	VCI uint32
	// Damaged marks a PDU whose cell train was dropped or corrupted in
	// flight: it arrives, but its AAL5 CRC cannot pass, so the receive
	// processor must discard it. Only the fault injector sets it.
	Damaged bool
	Size    int
	// Meta carries the in-simulator protocol object by reference; the
	// real board would see only the serialized bytes.
	Meta any
}

// Bytes returns the modeled size of the packet on the wire before
// cell overhead.
func (p *Packet) Bytes() int { return p.Size }

// Stats counts fabric activity.
type Stats struct {
	Messages  uint64
	DataBytes uint64 // pre-cell-overhead bytes
	WireBytes uint64 // bytes actually clocked onto links
	Cells     uint64
	HopCount  uint64   // switch output ports crossed, all messages
	PortWaits sim.Time // cycles queued on destination delivery ports
	LinkWaits sim.Time // cycles queued on intermediate switch ports
	Faults    FaultStats
}

// Network is the routed fabric plus the per-node access links. It runs
// on one kernel per shard, and one shard is the common case: every walk
// a Send asks for waits, with its route, in the sending shard's ledger
// until the window barrier, which walks the ledgers in canonical order,
// so the fabric realizes one order of events at every shard count.
type Network struct {
	cfg  *config.Config
	topo topo.Topology

	rx  []func(pkt *Packet, at sim.Time)
	inj *injector // nil on the (default) lossless fabric

	// Per-hop timing, fixed by the configuration: the head cell's
	// serialization (the cut-through pipeline offset), one link's
	// propagation, and a switch's latency.
	head, prop, swLat sim.Time

	// deliverFn is the pre-bound delivery event body handed to
	// sim.Kernel.AtCall with the packet as argument, so scheduling a
	// delivery allocates no closure — the fabric's contribution to the
	// allocation-free hot loop.
	deliverFn func(any)

	kernels  []*sim.Kernel // one per shard
	shardOf  []int         // node id -> shard id
	perShard []*netShard   // ledgers and send-phase counters, one per shard
	drainBuf []walkItem    // barrier scratch for two or more shards

	Stats Stats
}

// walkItem is one deferred fabric walk: a Send recorded during a
// window, applied at the next barrier. The canonical order —
// (send-call kernel time, source node, per-node call order) — is a
// pure function of simulated behavior, so the resource-reservation
// sequence, and with it every timing and fault verdict, is identical
// at every shard count.
type walkItem struct {
	now   sim.Time // kernel time of the Send call: first canonical key
	at    sim.Time // launch time passed to Send
	pkt   *Packet
	route []topo.Hop // resolved at Send: a capped slice of its shard's hop arena
}

// compareWalks orders walks canonically by (send time, source node);
// a stable sort keeps each node's calls in call order.
func compareWalks(a, b walkItem) int {
	if c := cmp.Compare(a.now, b.now); c != 0 {
		return c
	}
	return cmp.Compare(a.pkt.Src, b.pkt.Src)
}

// netShard is the slice of fabric state one shard may touch during a
// window without synchronization: its own ledger, the hop arena its
// routes live in, and its nodes' send-phase counters (pure sums, folded
// into Stats by Finish). The barrier empties the ledger and the arena
// together.
type netShard struct {
	ledger []walkItem
	hops   []topo.Hop
	sent   Stats
}

// New builds the fabric selected by cfg.Topology for n nodes on kernel
// k, which becomes the fabric's window driver: k.Run executes
// lock-stepped windows of Lookahead with the fabric's ledger drain as
// the barrier (sim.Kernel.OnBarrier). The node count is user input, so
// an unaddressable n (more nodes than the topology's geometry, or than
// the 16-bit VCI lanes, can carry) is an error, not a panic.
func New(k *sim.Kernel, cfg *config.Config, n int) (*Network, error) {
	tp, err := newTopology(cfg, n)
	if err != nil {
		return nil, err
	}
	nw := newNetwork(cfg, tp, make([]int, n), []*sim.Kernel{k})
	k.SetLookahead(nw.Lookahead())
	k.OnBarrier(nw.drainLedger, nw.waiting)
	return nw, nil
}

// NewSharded builds the same fabric split across conservative-parallel
// kernel shards: the topology's Partition assigns every node to one of
// at most shards shards (clamped by the geometry), each with its own
// kernel, and the returned ShardSet drives them through lock-stepped
// windows of width Lookahead. The barrier drains all ledgers
// single-threaded in canonical (send time, source node) order, so port
// reservations and fault draws replay one order at every shard count
// and deliveries land on the destination's shard kernel. With one
// shard the set's kernel runs those windows itself, as under New.
//
// Node components (boards, procs) must schedule exclusively on their
// node's shard kernel — NodeKernel(i) — and must not touch another
// node's state except through messages.
func NewSharded(cfg *config.Config, n, shards int, engine sim.Engine) (*Network, *sim.ShardSet, error) {
	tp, err := newTopology(cfg, n)
	if err != nil {
		return nil, nil, err
	}
	part := tp.Partition(shards)
	eff := 0
	for _, s := range part {
		eff = max(eff, s+1)
	}
	ss := sim.NewShardSet(eff, engine)
	kernels := make([]*sim.Kernel, eff)
	for i := range kernels {
		kernels[i] = ss.Kernel(i)
	}
	nw := newNetwork(cfg, tp, part, kernels)
	ss.SetLookahead(nw.Lookahead())
	ss.OnBarrier(nw.drainLedger, nw.waiting)
	return nw, ss, nil
}

// newTopology validates the node count and builds the routed graph.
func newTopology(cfg *config.Config, n int) (topo.Topology, error) {
	if err := config.ValidateNodes(n); err != nil {
		// More nodes than the 16-bit VCI lanes can address would
		// silently collide virtual circuits in the nic layer.
		return nil, fmt.Errorf("atm: %w", err)
	}
	tp, err := topo.New(cfg, n)
	if err != nil {
		return nil, fmt.Errorf("atm: %w", err)
	}
	return tp, nil
}

// newNetwork builds the fabric over one kernel per shard, with node i
// on kernels[shardOf[i]].
func newNetwork(cfg *config.Config, tp topo.Topology, shardOf []int, kernels []*sim.Kernel) *Network {
	nw := &Network{cfg: cfg, topo: tp, kernels: kernels, shardOf: shardOf}
	bits := int64(cfg.CellBytes) * 8
	nw.head = cfg.NSToCycles((bits*1000 + cfg.LinkMbps - 1) / cfg.LinkMbps)
	nw.prop = cfg.NSToCycles(cfg.WirePropNS)
	nw.swLat = cfg.NSToCycles(cfg.SwitchLatencyNS)
	nw.deliverFn = nw.shardDeliver
	nw.rx = make([]func(*Packet, sim.Time), len(shardOf))
	nw.inj = newInjector(cfg, tp.Edges())
	nw.perShard = make([]*netShard, len(kernels))
	for i := range nw.perShard {
		nw.perShard[i] = &netShard{}
	}
	return nw
}

// Lookahead is the fabric's conservative window width: no Send made at
// kernel time t can deliver before t + Lookahead, because even a
// zero-wait minimal walk pays the head-cell pipeline offset, the
// switch latency, both propagation legs, and at least the final-hop
// serialization. Fault verdicts only add delay (and duplicate
// deliveries land one serialization later still), so the bound holds
// on lossy fabrics too; shardSchedule panics if it is ever violated.
func (nw *Network) Lookahead() sim.Time {
	return nw.head + 2*nw.prop + nw.swLat
}

// Shards reports the effective shard count.
func (nw *Network) Shards() int { return len(nw.kernels) }

// NodeKernel returns the kernel node i's components must schedule on:
// its shard's kernel.
func (nw *Network) NodeKernel(i int) *sim.Kernel { return nw.kernels[nw.shardOf[i]] }

// Faulty reports whether the fabric injects faults.
func (nw *Network) Faulty() bool { return nw.inj != nil }

// Nodes reports the number of attached nodes.
func (nw *Network) Nodes() int { return len(nw.rx) }

// Topology exposes the routed graph underneath the fabric.
func (nw *Network) Topology() topo.Topology { return nw.topo }

// Attach registers the receive handler for node i; the fabric calls it
// once per packet at the arrival time of the packet's last cell.
func (nw *Network) Attach(i int, handler func(pkt *Packet, at sim.Time)) {
	nw.rx[i] = handler
}

// Send injects pkt into the fabric at time at (the moment the source
// NIC starts clocking the first cell out). The sending shard counts it,
// resolves its route into the shard's hop arena, and defers its walk to
// the next window barrier, so the delivery time is known only then; the
// destination's handler runs at it. Sending to self is legal and
// bypasses the fabric: the delivery is scheduled at once, on the node's
// own kernel.
func (nw *Network) Send(at sim.Time, pkt *Packet) {
	if pkt.Dst < 0 || pkt.Dst >= len(nw.rx) || pkt.Src < 0 || pkt.Src >= len(nw.rx) {
		panic(fmt.Sprintf("atm: packet %d->%d outside fabric of %d nodes", pkt.Src, pkt.Dst, len(nw.rx)))
	}
	shard := nw.shardOf[pkt.Src]
	s := nw.perShard[shard]
	nw.count(&s.sent, pkt)

	k := nw.kernels[shard]
	if pkt.Dst == pkt.Src {
		// Loopback inside the board: shard-local, no fabric state.
		if nw.rx[pkt.Dst] == nil {
			panic(fmt.Sprintf("atm: node %d has no receive handler", pkt.Dst))
		}
		k.AtCall(at+nw.head, nw.deliverFn, pkt)
		return
	}
	// Route reads only the fixed geometry, so shards resolve routes
	// concurrently; the cap keeps each route's slice its own.
	start := len(s.hops)
	s.hops = nw.topo.Route(pkt.Src, pkt.Dst, s.hops)
	route := s.hops[start:len(s.hops):len(s.hops)]
	s.ledger = append(s.ledger, walkItem{now: k.Now(), at: at, pkt: pkt, route: route})
}

// walk occupies the source access link for the whole serialization,
// then walks the route Send resolved. At each switch the head cell
// arrives one cell-time plus propagation plus switch latency after the
// message won the previous stage, and the message holds the output
// port for its serialization time — cut-through pipelining with
// per-hop contention.
// Queuing on the final port is the paper's output-port contention
// (PortWaits); queuing at intermediate switches only exists on
// multi-hop fabrics (LinkWaits). On faulty fabrics the injector judges
// the cell train; lost reports a dead PDU (never delivered), and
// redeliver is nonzero when a duplicated train replays one PDU-time
// later.
//
// The walk order is the fabric's serialization point: ports are
// contended resources, so calling walk in a different order changes
// timings. The barrier walks in the canonical order of the ledger.
func (nw *Network) walk(at sim.Time, pkt *Packet, route []topo.Hop) (deliver, redeliver sim.Time, lost bool) {
	b := pkt.Bytes()
	ser := nw.cfg.SerializeCycles(b)
	pipe := nw.head + nw.prop + nw.swLat

	txStart, _ := nw.topo.TxLink(pkt.Src).Use(at, ser)
	t := txStart
	var portEnd sim.Time
	for i, hop := range route {
		headAt := t + pipe
		var portStart sim.Time
		portStart, portEnd = hop.Port.Use(headAt, ser)
		if i == len(route)-1 {
			nw.Stats.PortWaits += portStart - headAt
		} else {
			nw.Stats.LinkWaits += portStart - headAt
		}
		t = portStart
	}
	nw.Stats.HopCount += uint64(len(route))

	deliver = portEnd + nw.prop
	if nw.inj != nil {
		// Judge the injection link, then every link the route crosses
		// short of the final delivery hop: a fault anywhere on the path
		// mangles the same cell train. On the single switch the route
		// is one hop, so only the injection link draws — bit-identical
		// to the single-switch injector.
		cells := nw.cfg.Cells(b)
		v := nw.inj.judge(pkt.Src, cells, nw.head, &nw.Stats.Faults)
		for _, hop := range route[:len(route)-1] {
			v.merge(nw.inj.judge(hop.Edge, cells, nw.head, &nw.Stats.Faults))
		}
		if v.lost {
			// The end-of-PDU cell died: reassembly never terminates and
			// the receive processor never learns the PDU existed.
			nw.Stats.Faults.PacketsLost++
			return deliver, 0, true
		}
		deliver += v.delay
		if v.damaged {
			nw.Stats.Faults.PacketsDamaged++
			pkt.Damaged = true
		}
		if v.duped {
			// The duplicated cell replays the train one PDU-time later.
			nw.Stats.Faults.PacketsDuped++
			redeliver = deliver + ser
		}
	}
	return deliver, redeliver, false
}

// count charges pkt's send-phase counters to st.
func (nw *Network) count(st *Stats, pkt *Packet) {
	b := pkt.Bytes()
	st.Messages++
	st.DataBytes += uint64(b)
	st.WireBytes += uint64(nw.cfg.WireBytes(b))
	st.Cells += uint64(nw.cfg.Cells(b))
}

// waiting reports whether any shard's ledger holds a walk: the work
// the window barrier has to do.
func (nw *Network) waiting() bool {
	for _, s := range nw.perShard {
		if len(s.ledger) > 0 {
			return true
		}
	}
	return false
}

// drainLedger is the window barrier: it restores the canonical global
// order of every shard's deferred walks and applies them
// single-threaded. Send resolved the routes, so the barrier only
// reserves ports. A stable sort by (send time, source node) over the
// per-shard append order — each node's sends sit in one shard's ledger
// in call order, and kernel time is monotone within a shard — yields
// an order independent of the shard count, so the ports see one
// reservation sequence at every shard count. One shard's ledger is
// walked in place, and a ledger already in that order (the usual case
// with a few walks per window) is not sorted.
func (nw *Network) drainLedger(edge sim.Time) {
	buf := nw.perShard[0].ledger
	if len(nw.perShard) > 1 {
		buf = nw.drainBuf[:0]
		for _, s := range nw.perShard {
			buf = append(buf, s.ledger...)
		}
		nw.drainBuf = buf
	}
	if !slices.IsSortedFunc(buf, compareWalks) {
		slices.SortStableFunc(buf, compareWalks)
	}
	for i := range buf {
		it := &buf[i]
		deliver, redeliver, lost := nw.walk(it.at, it.pkt, it.route)
		if lost {
			continue
		}
		nw.shardSchedule(it.pkt, deliver, edge)
		if redeliver != 0 {
			nw.shardSchedule(it.pkt, redeliver, edge)
		}
	}
	for _, s := range nw.perShard {
		s.ledger = s.ledger[:0]
		s.hops = s.hops[:0]
	}
}

// shardSchedule lands a delivery on the destination node's shard
// kernel. No kernel has run past the window edge during a barrier, so
// a delivery at or before the edge would execute out of causal order —
// that would mean the lookahead bound is wrong, and nothing downstream
// could be trusted, hence the loud panic.
func (nw *Network) shardSchedule(pkt *Packet, deliver, edge sim.Time) {
	if deliver <= edge {
		panic(fmt.Sprintf("atm: delivery %d->%d at t=%d not after window edge %d: lookahead %d is unsound",
			pkt.Src, pkt.Dst, deliver, edge, nw.Lookahead()))
	}
	if nw.rx[pkt.Dst] == nil {
		panic(fmt.Sprintf("atm: node %d has no receive handler", pkt.Dst))
	}
	nw.NodeKernel(pkt.Dst).AtCall(deliver, nw.deliverFn, pkt)
}

// shardDeliver is the delivery event body: it runs on the
// destination's shard kernel at the arrival time of the packet's last
// cell and hands the packet to the node's receive handler.
func (nw *Network) shardDeliver(arg any) {
	pkt := arg.(*Packet)
	nw.rx[pkt.Dst](pkt, nw.NodeKernel(pkt.Dst).Now())
}

// Finish folds the per-shard send-phase counters into Stats; call it
// after the run and before reading Stats. The counters are pure sums,
// so the fold is order-independent and the totals do not depend on the
// shard count.
func (nw *Network) Finish() {
	for _, s := range nw.perShard {
		metrics.Fold(&nw.Stats, s.sent)
		s.sent = Stats{}
	}
}
