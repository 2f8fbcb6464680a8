// Package kv is a memcached-style key-value service, a request handler
// on the serving transport of internal/rpc: GET/SET/DELETE requests
// with a flat 40-byte wire encoding, per-node key-space sharding (key
// mod servers, decided by the client), and a versioned store. The
// transport supplies the rest — bounded server work queues with
// admission control derived from free-queue depth, and per-request
// latency measured at the client from the scheduled issue time
// (coordination-omission-free under open loop).
//
// Two things distinguish it from plain RPC serving:
//
// First, multi-tenant QoS (internal/tenant). Every request names its
// tenant; a serving node gives each tenant its own device channel —
// its own free-queue descriptors, preposted at setup — plus a
// token-bucket rate limit and a strict/weighted-fair scheduler slot,
// all enforced at the existing enqueue-time protection point where an
// arrival claims a descriptor. With isolation off the same arrivals
// share one channel, one bucket-less pool and one FIFO, which is the
// ablation the FS2 experiment measures.
//
// Second, the NIC-resident response cache (cache.go). On the CNI a
// serving board keeps recently transmitted GET responses pinned in the
// Message Cache and screens arriving requests with a board filter
// (nic.RegisterFilter): a repeat GET whose response is still pinned is
// answered entirely by the receive processor — no DMA, no interrupt,
// no host cycles, the serving-era analogue of the paper's
// protocol-processing-on-the-board claim. The capability is gated on
// the board's HandlersOnBoard predicate plus the
// config.NICResponseCache knob, so OSIRIS and the standard interface
// always pay the host path.
package kv

import (
	"fmt"

	"cni/internal/adc"
	"cni/internal/config"
	"cni/internal/nic"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/tenant"
)

// Protocol operations (the 0x700 block; rpc holds 0x600): request and
// response; the transport sends the done marker as 0x702.
const (
	opRequest  uint32 = 0x700
	opResponse uint32 = 0x701
)

// HeapBase is the virtual base of each node's pinned KV heap,
// disjoint from the RPC heap at 1<<30. Page layout: page 0 is the
// arrival window, pages 1..63 the per-connection request buffers,
// page 64 the scratch response buffer, and pages 65.. the response
// cache slots on a serving node.
const HeapBase uint64 = 1 << 31

const (
	scratchPage = 64
	slotPage0   = 65
)

// Outcome is the terminal state of one call, and the flag a response
// carries.
type Outcome int

// The call outcomes. The first four are the transport's own and share
// its values; NotFound answers a GET on a key with no live value, and
// the transport counts it as OK.
const (
	OK        = Outcome(rpc.OK)
	Rejected  = Outcome(rpc.Rejected)
	Expired   = Outcome(rpc.Expired)
	Throttled = Outcome(rpc.Throttled)
	NotFound  = Throttled + 1
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case NotFound:
		return "notfound"
	case Rejected:
		return "rejected"
	case Throttled:
		return "throttled"
	case Expired:
		return "expired"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Stats counts one node's KV activity (client and server roles). It is
// comparable, like rpc.Stats, so determinism tests can use ==.
type Stats struct {
	// The transport's counters. Completed counts OK and NotFound
	// responses, and Lat is their latency histogram.
	rpc.Stats

	Malformed uint64 // arrivals whose request failed to decode

	// NIC-resident response cache (serving CNI boards only).
	BoardServed  uint64 // GETs answered by the board filter
	BoardMissed  uint64 // GETs the filter passed to the host
	Inserts      uint64 // responses retained by the board
	CacheEvicts  uint64 // LRU evictions under the pin budget
	WriteInvals  uint64 // entries killed by an arriving SET/DELETE
	InsertVetoes uint64 // inserts refused during a write window
	PinFails     uint64 // inserts refused for want of an MC frame

	// HitLat and HostLat split GET latency by who served it.
	HitLat  rpc.Hist
	HostLat rpc.Hist
}

// reqPDU is the wire payload of a request: the encoded bytes, plus the
// decode the first consumer (board filter or host handler) produced so
// the message is parsed once per receiving node.
type reqPDU struct {
	raw []byte
	req *Request
}

// respMsg is the wire payload of a response.
type respMsg struct {
	id      uint64
	version uint64
	out     Outcome
	board   bool // served by the NIC-resident cache
}

// storeVal is one key's state at its home server.
type storeVal struct {
	version uint64
	live    bool
}

// Engine is the cluster-wide KV fabric state: one per simulation,
// attached to every board (cluster.New does this).
type Engine struct {
	cfg   *config.Config
	nodes []*Node
}

// NewEngine returns an engine for a simulation using cfg.
func NewEngine(cfg *config.Config) *Engine {
	return &Engine{cfg: cfg}
}

// Node returns the endpoint attached for node i.
func (e *Engine) Node(i int) *Node { return e.nodes[i] }

// Attach registers the KV protocol handlers on b and returns the
// node's endpoint. Heap mapping, channel setup and cache state appear
// only when a role is configured.
func (e *Engine) Attach(b *nic.Board) *Node {
	n := &Node{e: e, b: b, node: b.Node()}
	n.Transport.Attach(e.cfg, b, rpc.Service{
		Name: "kv", Op: opRequest, Heap: HeapBase, Rx: HeapBase,
		Stats: &n.Stats.Stats, Lat: &n.Lat,
	}, (*handler)(n))
	e.nodes = append(e.nodes, n)
	return n
}

// ServerConfig sizes one node's serving state.
type ServerConfig struct {
	// WorkQueue bounds the per-tenant work queue (the shared queue with
	// isolation off).
	WorkQueue int
	// FreeBufs is the total receive-buffer budget; with isolation on it
	// is split evenly across the tenant channels (min 1 each).
	FreeBufs int
	// ServiceGet / ServiceSet are the CPU costs of serving one GET /
	// one SET-or-DELETE, in cycles.
	ServiceGet sim.Time
	ServiceSet sim.Time
	// ValueBytes is the GET response payload size.
	ValueBytes int
	// Policy is what to do with requests that cannot be admitted.
	Policy rpc.Policy
	// Clients is how many client nodes will send a done marker.
	Clients int
	// Tenants are the QoS classes; empty means one uncontracted tenant.
	Tenants []tenant.Class
	// Isolation turns the per-tenant machinery on: per-tenant device
	// channels and buffer splits, token buckets, and the
	// priority/weighted scheduler. Off, every arrival shares one
	// channel, one pool and one FIFO regardless of tenant.
	Isolation bool
}

// Node is one machine's KV endpoint: the serving transport with the KV
// request handler.
type Node struct {
	rpc.Transport[*Request]
	e    *Engine
	node int
	b    *nic.Board

	// Server state.
	sc      ServerConfig
	classes []tenant.Class
	store   map[uint64]storeVal
	buckets []tenant.Bucket
	bcache  *boardCache

	Stats Stats
	// Lat/HitLat/HostLat hold the exact samples behind the Stats
	// histograms; TStats/TLat are the per-tenant ledgers (client side:
	// outcomes and latency; sized by the largest tenant id seen).
	Lat     rpc.Latencies
	HitLat  rpc.Latencies
	HostLat rpc.Latencies
	TStats  []tenant.Stats
	TLat    []rpc.Latencies
}

// pageBytes is the node's page size.
func (n *Node) pageBytes() uint64 { return uint64(n.e.cfg.PageBytes) }

func (n *Node) scratchSlot() uint64 { return HeapBase + scratchPage*n.pageBytes() }

// tenantAt clamps a wire tenant id to the configured classes.
func (n *Node) tenantAt(t uint16) int {
	if int(t) < len(n.classes) {
		return int(t)
	}
	return -1
}

// growTenant ensures the per-tenant ledgers cover tenant t.
func (n *Node) growTenant(t int) {
	for len(n.TStats) <= t {
		n.TStats = append(n.TStats, tenant.Stats{})
		n.TLat = append(n.TLat, rpc.Latencies{})
	}
}

// StartServer configures the node to serve requests. Call before the
// simulation runs; channels and free buffers are set up outside
// simulated time, the OSIRIS setup discipline.
func (n *Node) StartServer(sc ServerConfig) {
	if sc.ServiceGet <= 0 {
		sc.ServiceGet = 1
	}
	if sc.ServiceSet <= 0 {
		sc.ServiceSet = sc.ServiceGet
	}
	if len(sc.Tenants) == 0 {
		sc.Tenants = []tenant.Class{{ID: 0}}
	}
	n.sc = sc
	n.store = make(map[uint64]storeVal)
	n.classes = make([]tenant.Class, len(sc.Tenants))
	for i, c := range sc.Tenants {
		n.classes[i] = c.WithDefaults()
	}
	n.growTenant(len(n.classes) - 1)

	// The credit classes: one per tenant under isolation, each with its
	// share of the buffers and its token bucket; otherwise one shared
	// class, one FIFO, no buckets.
	classes := []rpc.Class{{Bufs: sc.FreeBufs}}
	if sc.Isolation {
		cps := float64(n.e.cfg.CPUFreqMHz) * 1e6
		per := max(sc.FreeBufs/len(n.classes), 1)
		n.buckets = make([]tenant.Bucket, len(n.classes))
		classes = make([]rpc.Class, len(n.classes))
		for i, c := range n.classes {
			n.buckets[i] = tenant.NewBucket(c, cps)
			classes[i] = rpc.Class{Class: c, Bufs: per}
		}
	}

	// The response cache and its slots, where the board can run it.
	nslots := 0
	if n.b.HandlersOnBoard() && n.e.cfg.NICResponseCache && n.b.MC != nil &&
		n.sc.ValueBytes <= int(n.pageBytes()) {
		frames := n.e.cfg.ResponseCacheFrames
		if frames <= 0 {
			frames = n.b.MC.Frames() / 2
		}
		if limit := n.b.MC.Frames() - 2; frames > limit {
			frames = limit
		}
		if frames > 0 {
			nslots = 4 * frames
			if nslots < 64 {
				nslots = 64
			}
			n.bcache = newBoardCache(n.b, HeapBase+slotPage0*n.pageBytes(),
				n.pageBytes(), frames, nslots)
			n.b.RegisterFilter(opRequest, n.boardFilter)
		}
	}
	heapBytes := (slotPage0 + nslots) * int(n.pageBytes())
	n.MapHeap(heapBytes)

	// Per-class device channels: the enqueue-time protection point, one
	// per tenant, each with its own preposted free descriptors. The
	// board never pops these rings; the transport keeps them equal to
	// the credits.
	if n.b.ADC != nil {
		region := adc.Region{Base: HeapBase, Len: uint64(heapBytes)}
		for i := range classes {
			ch, err := n.b.ADC.Open(n.node, uint32(0x4B000000)|uint32(i), region)
			if err != nil {
				panic(fmt.Sprintf("kv: node %d opening tenant channel %d: %v", n.node, i, err))
			}
			classes[i].Ring = ch
		}
	}
	n.Listen(rpc.ServerConfig{WorkQueue: sc.WorkQueue, FreeBufs: sc.FreeBufs,
		Policy: sc.Policy, Clients: sc.Clients}, classes)
}

// Preload installs key at version 1 in the serving node's store before
// the simulation runs (a pre-populated dataset, so workload GETs hit
// live keys instead of measuring a miss storm).
func (n *Node) Preload(key uint64) {
	if n.store == nil {
		panic(fmt.Sprintf("kv: node %d Preload before StartServer", n.node))
	}
	n.store[key] = storeVal{version: 1, live: true}
}

// Conn is one logical client connection to a server node.
type Conn struct {
	rpc.Link[*Request]
	n        *Node
	setBytes int
}

// Dial opens a logical connection from this node to server. setBytes
// is the SET value payload size; deadline (cycles, 0 = none) bounds
// each request issued on the connection.
func (n *Node) Dial(server int, setBytes int, deadline sim.Time) *Conn {
	n.MapHeap((scratchPage + 1) * int(n.pageBytes()))
	return &Conn{Link: n.Connect(server, deadline), n: n, setBytes: setBytes}
}

// issue builds, encodes and transmits one request from p's context,
// measuring latency from issuedAt.
func (c *Conn) issue(p *sim.Proc, issuedAt sim.Time, kind Kind, tn int, key uint64) *rpc.Call[*Request] {
	n := c.n
	ca := c.Open(issuedAt)
	n.growTenant(tn)
	n.TStats[tn].Issued++
	req := &Request{
		Kind: kind, Tenant: uint16(tn), Key: key,
		Conn: c.ID(), ID: ca.ID, From: uint32(n.node), Deadline: ca.Deadline,
	}
	if kind == Set {
		req.ValBytes = uint32(c.setBytes)
	}
	ca.Req = req
	c.Send(p, &reqPDU{raw: EncodeRequest(nil, req)}, ReqBytes, int(req.ValBytes))
	return ca
}

// Fire issues one request asynchronously (open loop).
func (c *Conn) Fire(p *sim.Proc, issuedAt sim.Time, kind Kind, tn int, key uint64) {
	c.issue(p, issuedAt, kind, tn, key)
}

// Call issues one request and blocks until its response arrives
// (closed loop), reporting the outcome and the key's version.
func (c *Conn) Call(p *sim.Proc, kind Kind, tn int, key uint64) (Outcome, uint64) {
	p.Sync()
	ca := c.issue(p, p.Local(), kind, tn, key)
	ca.Wait(p)
	rm := ca.Reply.(*respMsg)
	return rm.out, rm.version
}

// boardFilter is the CNI response-cache screening handler, running on
// the board's receive processor for every arriving KV request (cost:
// AIHHandlerCycles, charged by the receive path). A GET that hits the
// index is answered from its pinned Message Cache page — SendAt from
// board context is free on the CNI, and the transmit probe hits, so
// the reply leaves with no DMA and the host never runs. A SET or
// DELETE invalidates the key's entry right here, at the earliest
// moment the board knows about the write, and opens the insert-veto
// window that closes when the host resolves the write.
func (n *Node) boardFilter(at sim.Time, m *nic.Message) bool {
	pd := m.Payload.(*reqPDU)
	req, err := DecodeRequest(pd.raw)
	if err != nil {
		return false // let the host count it
	}
	pd.req = &req
	if n.tenantAt(req.Tenant) < 0 {
		return false
	}
	switch req.Kind {
	case Get:
		e, ok := n.bcache.lookup(req.Key, at)
		if !ok {
			n.Stats.BoardMissed++
			return false
		}
		n.Stats.BoardServed++
		n.b.SendAt(at, &nic.Message{
			From: n.node, To: int(req.From), Op: opResponse, Aux: req.Conn,
			Size:         nic.HeaderBytes + 24 + n.sc.ValueBytes,
			VAddr:        n.bcache.SlotAddr(req.Key),
			CacheTx:      true,
			NoFlush:      true, // board memory: there are no host cache lines to flush
			Payload:      &respMsg{id: req.ID, version: e.version, out: OK, board: true},
			DeliverVAddr: HeapBase,
			DeliverBytes: n.sc.ValueBytes,
		})
		return true
	case Set, Del:
		if n.bcache.writeArrived(req.Key) {
			n.Stats.WriteInvals++
		}
	}
	return false
}

// writeResolved closes the board-side write window for a SET/DELETE
// that reached a terminal outcome on the host.
func (n *Node) writeResolved(req *Request) {
	if n.bcache != nil && req.Kind != Get {
		n.bcache.writeDone(req.Key)
	}
}

// apply runs req against the store, returning the response outcome and
// the key's (possibly new) version.
func (n *Node) apply(req *Request) (Outcome, uint64) {
	v := n.store[req.Key]
	switch req.Kind {
	case Set:
		v.version++
		v.live = true
		n.store[req.Key] = v
		return OK, v.version
	case Del:
		v.version++
		v.live = false
		n.store[req.Key] = v
		return OK, v.version
	default:
		if !v.live {
			return NotFound, v.version
		}
		return OK, v.version
	}
}

// control builds a small ack/miss/refusal response (no value payload,
// no buffer).
func (n *Node) control(req *Request, out Outcome, version uint64) *nic.Message {
	return &nic.Message{
		From: n.node, To: int(req.From), Op: opResponse, Aux: req.Conn,
		Size:    nic.HeaderBytes + 24,
		Payload: &respMsg{id: req.ID, version: version, out: out},
	}
}

// respondValue sends a GET's value response. The host composes the
// value into the response buffer (WriteBuffer: real cache-hierarchy
// write cost, and the board learns of the write) and transmits with
// CacheTx so the Message Cache binds it. When the board cache wants to
// retain the response it is transmitted from the key's slot page and
// the page pinned after the transmit binds it; otherwise it leaves
// from the shared scratch page, the plain hot-buffer path.
func (n *Node) respondValue(p *sim.Proc, req *Request, version uint64) {
	vaddr := n.scratchSlot()
	retain := false
	if n.bcache != nil {
		if n.bcache.writePending(req.Key) {
			n.Stats.InsertVetoes++
		} else {
			vaddr = n.bcache.SlotAddr(req.Key)
			retain = true
		}
	}
	p.Advance(n.b.WriteBuffer(vaddr, n.sc.ValueBytes))
	p.Sync()
	n.b.Send(p, &nic.Message{
		From: n.node, To: int(req.From), Op: opResponse, Aux: req.Conn,
		Size:         nic.HeaderBytes + 24 + n.sc.ValueBytes,
		VAddr:        vaddr,
		CacheTx:      true,
		Payload:      &respMsg{id: req.ID, version: version, out: OK},
		DeliverVAddr: HeapBase,
		DeliverBytes: n.sc.ValueBytes,
	})
	if retain {
		evictsBefore := n.bcache.valid
		if n.bcache.insert(req.Key, version, p.Local()) {
			n.Stats.Inserts++
			if n.bcache.valid == evictsBefore {
				// Same occupancy after an insert into a full budget or an
				// occupied slot: something was displaced.
				n.Stats.CacheEvicts++
			}
		} else if n.bcache.writePending(req.Key) {
			n.Stats.InsertVetoes++
		} else {
			n.Stats.PinFails++
		}
	}
}

// handler is the Node as the transport's Handler, kept off Node's own
// method set.
type handler Node

// Decode reads an arriving request the board filter did not consume
// (reusing the filter's decode when it ran) and maps its tenant to a
// credit class: itself under isolation, the one shared class
// otherwise.
func (h *handler) Decode(m *nic.Message) (*Request, int, bool) {
	pd := m.Payload.(*reqPDU)
	if pd.req == nil {
		req, err := DecodeRequest(pd.raw)
		if err != nil {
			h.Stats.Malformed++
			return nil, 0, false
		}
		pd.req = &req
	}
	tn := (*Node)(h).tenantAt(pd.req.Tenant)
	if tn < 0 {
		h.Stats.Malformed++
		return nil, 0, false
	}
	if !h.sc.Isolation {
		tn = 0
	}
	return pd.req, tn, true
}

// Throttle is the tenant's token bucket, checked before the request
// claims a receive buffer.
func (h *handler) Throttle(at sim.Time, req *Request) bool {
	return h.sc.Isolation && !h.buckets[req.Tenant].Take(at)
}

func (h *handler) Deadline(req *Request) sim.Time { return req.Deadline }

func (h *handler) Service(req *Request) sim.Time {
	if req.Kind == Get {
		return h.sc.ServiceGet
	}
	return h.sc.ServiceSet
}

// Respond applies a served request to the store and answers it: a
// GET's value from the board-cache slot or scratch page, anything else
// with a small control response.
func (h *handler) Respond(p *sim.Proc, req *Request) {
	n := (*Node)(h)
	out, version := n.apply(req)
	if req.Kind == Get && out == OK {
		n.respondValue(p, req, version)
	} else {
		n.b.Send(p, n.control(req, out, version))
	}
	n.writeResolved(req)
}

// Refuse ends a request the host did not serve (throttled, shed or
// expired), closing its write window.
func (h *handler) Refuse(req *Request, out rpc.Outcome) *nic.Message {
	n := (*Node)(h)
	n.writeResolved(req)
	return n.control(req, Outcome(out), 0)
}

// Reply reads a response for the transport: NotFound completes the
// call like OK.
func (h *handler) Reply(m *nic.Message) (uint64, rpc.Outcome) {
	rm := m.Payload.(*respMsg)
	if rm.out == NotFound {
		return rm.id, rpc.OK
	}
	return rm.id, rpc.Outcome(rm.out)
}

// Record is the client-side KV bookkeeping of a finished call: the
// tenant's ledger, and GET latency split board-served vs host-served.
func (h *handler) Record(at sim.Time, ca *rpc.Call[*Request]) {
	n := (*Node)(h)
	tn := int(ca.Req.Tenant)
	n.growTenant(tn)
	ts := &n.TStats[tn]
	switch ca.Out {
	case rpc.OK:
		lat := at - ca.Issued
		ts.Completed++
		n.TLat[tn].Add(lat)
		if ca.Deadline == 0 || at <= ca.Deadline {
			ts.OnTime++
		}
		if ca.Req.Kind == Get {
			if ca.Reply.(*respMsg).board {
				n.HitLat.Add(lat)
				n.Stats.HitLat = n.HitLat.Hist
			} else {
				n.HostLat.Add(lat)
				n.Stats.HostLat = n.HostLat.Hist
			}
		}
	case rpc.Rejected:
		ts.Rejected++
	case rpc.Throttled:
		ts.Throttled++
	case rpc.Expired:
		ts.Expired++
	}
}
