// Package rpc is a request/response messaging subsystem multiplexing
// many logical connections over the per-node Application Device
// Channel queues of the CNI paper — the serving-style workload the
// ADCs exist for: applications sending and receiving on the critical
// path with no OS involvement.
//
// One Engine attaches to every board of a simulated cluster (the same
// pattern as internal/collective); a Node is one machine's endpoint,
// acting as server, client or both. Requests carry per-connection
// request ids and absolute deadlines; servers run a bounded work queue
// and derive admission control from the depth of the ADC free queue:
// when the free queue runs dry (no receive buffer for the arrival) the
// request is shed with an immediate reject or delayed in board memory
// until a buffer frees, by policy. On the standard interface — which
// has no device channels — the identical admission logic runs against
// a kernel buffer pool of the same size, so the two interfaces differ
// only in their per-request notification and data-path costs, exactly
// the comparison the paper's evaluation makes.
//
// The transport itself — connections, admission, the server loop —
// lives in transport.go and is shared with the KV service (internal/kv);
// this file is the fixed-cost request handler on top of it.
//
// Per-request latency lands in a log2 histogram plus the exact sample
// set (hist.go), so p50/p99/p999 extraction is exact; cluster.Result
// aggregates the Stats across nodes.
package rpc

import (
	"fmt"

	"cni/internal/config"
	"cni/internal/nic"
	"cni/internal/sim"
)

// Protocol operations (the 0x600 block; DSM uses 0x1xx/0x2xx, message
// passing 0x3xx/0x4xx, collectives 0x5xx, kv 0x7xx): request and
// response; the transport sends the done marker as 0x602.
const (
	opRequest  uint32 = 0x600
	opResponse uint32 = 0x601
)

// HeapBase is the virtual base of each node's pinned RPC heap: the hot
// response buffer (page 0), the per-connection request buffers (pages
// 1..63) and the receive window (the upper half) live here, registered
// with the device channel when a role is configured so the
// enqueue-time protection check passes.
const HeapBase uint64 = 1 << 30

// HeapBytes is the pinned RPC heap per node.
const HeapBytes = 1 << 20

// Policy selects what a server does with a request it cannot admit
// (free queue dry, or work queue full).
type Policy int

const (
	// Shed rejects the request immediately: the board sends a small
	// reject response and the client counts it as Rejected.
	Shed Policy = iota
	// Delay parks the request (the board retains the PDU in its memory;
	// the kernel, in an sk_buff, on the standard interface) and admits
	// it when a buffer and a queue slot free up.
	Delay
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Shed:
		return "shed"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Stats counts one node's serving-transport activity (client and
// server roles). kv.Stats embeds it.
type Stats struct {
	// Client side.
	Issued       uint64 // requests sent
	Completed    uint64 // OK responses received
	Rejected     uint64 // requests shed by a server
	Throttled    uint64 // requests refused by the pre-admission check
	Expired      uint64 // requests whose deadline passed before service
	DeadlineMiss uint64 // OK responses that arrived after the deadline

	// Server side.
	Served     uint64 // requests serviced (including expired ones)
	FreeDry    uint64 // arrivals that found the free queue dry
	QueueFull  uint64 // arrivals that found the work queue full
	Delayed    uint64 // arrivals parked under the Delay policy
	QueuePeak  int    // work-queue high-water mark (all classes)
	ParkedPeak int    // parked-request high-water mark

	// Lat is the log2 histogram of request latency (issue to response
	// receipt) in CPU cycles, recorded on the client that issued the
	// request. Stats stays a plain comparable value so determinism
	// tests can use ==; the exact sample set behind the percentiles
	// lives in Node.Lat and cluster.Result.RPCLat.
	Lat Hist
}

// Merge folds o into s (cluster-level aggregation).
func (s *Stats) Merge(o Stats) {
	s.Issued += o.Issued
	s.Completed += o.Completed
	s.Rejected += o.Rejected
	s.Throttled += o.Throttled
	s.Expired += o.Expired
	s.DeadlineMiss += o.DeadlineMiss
	s.Served += o.Served
	s.FreeDry += o.FreeDry
	s.QueueFull += o.QueueFull
	s.Delayed += o.Delayed
	if o.QueuePeak > s.QueuePeak {
		s.QueuePeak = o.QueuePeak
	}
	if o.ParkedPeak > s.ParkedPeak {
		s.ParkedPeak = o.ParkedPeak
	}
	s.Lat.Merge(o.Lat)
}

// Outcome is the terminal state of one call, and the flag a response
// carries.
type Outcome int

// The call outcomes. Throttled belongs to services with a
// pre-admission check (kv's tenant token buckets); plain RPC never
// throttles.
const (
	OK Outcome = iota
	Rejected
	Expired
	Throttled
)

// reqMsg is the wire payload of a request.
type reqMsg struct {
	conn     uint32
	id       uint64
	from     int
	deadline sim.Time // absolute; 0 = none
}

// respMsg is the wire payload of a response.
type respMsg struct {
	id  uint64
	out Outcome
}

// Engine is the cluster-wide RPC fabric state: one per simulation,
// attached to every board.
type Engine struct {
	cfg   *config.Config
	k     *sim.Kernel
	nodes []*Node
}

// NewEngine returns an engine for a simulation using cfg on kernel k.
func NewEngine(cfg *config.Config, k *sim.Kernel) *Engine {
	return &Engine{cfg: cfg, k: k}
}

// Node returns the endpoint attached for node i.
func (e *Engine) Node(i int) *Node { return e.nodes[i] }

// Attach registers the RPC protocol handlers on b and returns the
// node's endpoint.
func (e *Engine) Attach(b *nic.Board) *Node {
	n := &Node{}
	n.Transport.Attach(e.cfg, b, Service{
		Name: "rpc", Op: opRequest, Heap: HeapBase, Rx: rxSlot,
		Stats: &n.Stats, Lat: &n.Lat,
	}, (*handler)(n))
	e.nodes = append(e.nodes, n)
	return n
}

// ServerConfig sizes one node's serving state.
type ServerConfig struct {
	// WorkQueue bounds the server-side queue of admitted requests.
	WorkQueue int
	// FreeBufs is the number of receive buffers preposted on the ADC
	// free queue (the kernel buffer pool on the standard interface);
	// admission control runs against this depth. At most the channel
	// queue capacity (256) on the CNI.
	FreeBufs int
	// Service is the CPU cost of serving one request, in cycles.
	Service sim.Time
	// RespBytes is the response payload size.
	RespBytes int
	// Policy is what to do with requests that cannot be admitted.
	Policy Policy
	// Clients is how many client nodes will send a done marker; Serve
	// returns once all of them have and the queues are empty.
	Clients int
}

// Node is one machine's RPC endpoint: the serving transport with the
// fixed-cost handler.
type Node struct {
	Transport[*reqMsg]
	sc ServerConfig

	Stats Stats
	// Lat holds the exact latency samples behind Stats.Lat, for exact
	// percentile extraction (Lat.Hist always equals Stats.Lat).
	Lat Latencies
}

// rxSlot is the receive window where arriving payloads land (a fixed
// window keeps the model simple; arrival buffers are not
// receive-cached).
const rxSlot = HeapBase + HeapBytes/2

// StartServer configures the node to serve requests with one credit
// class: the board's own device channel, whose free queue the board
// pops on every host-path arrival. Call before the simulation runs.
func (n *Node) StartServer(sc ServerConfig) {
	n.sc = sc
	n.MapHeap(HeapBytes)
	n.Listen(sc, []Class{{Bufs: sc.FreeBufs, Ring: n.b.Channel()}})
}

// handler is the Node as the transport's Handler, kept off Node's own
// method set.
type handler Node

func (h *handler) Decode(m *nic.Message) (*reqMsg, int, bool) {
	return m.Payload.(*reqMsg), 0, true
}

// Throttle admits everything: plain RPC has no pre-admission check.
func (h *handler) Throttle(sim.Time, *reqMsg) bool { return false }

func (h *handler) Deadline(rm *reqMsg) sim.Time { return rm.deadline }

func (h *handler) Service(*reqMsg) sim.Time { return h.sc.Service }

// Respond sends an OK response from the hot response buffer (page 0):
// every OK response transmits from the same page, so on the CNI the
// Message Cache binds it once and later responses are transmit hits
// with no DMA — the hot-buffer serving benefit of transmit caching.
func (h *handler) Respond(p *sim.Proc, rm *reqMsg) {
	m := &nic.Message{
		From: h.node, To: rm.from, Op: opResponse, Aux: rm.conn,
		Size:    nic.HeaderBytes + 16 + h.sc.RespBytes,
		VAddr:   HeapBase,
		CacheTx: true,
		Payload: &respMsg{id: rm.id, out: OK},
	}
	if h.sc.RespBytes > 0 {
		m.DeliverVAddr = rxSlot
		m.DeliverBytes = h.sc.RespBytes
	}
	h.b.Send(p, m)
}

// Refuse builds the small reject/expired marker: no buffer, no DMA.
func (h *handler) Refuse(rm *reqMsg, out Outcome) *nic.Message {
	return &nic.Message{
		From: h.node, To: rm.from, Op: opResponse, Aux: rm.conn,
		Size:    nic.HeaderBytes + 16,
		Payload: &respMsg{id: rm.id, out: out},
	}
}

func (h *handler) Reply(m *nic.Message) (uint64, Outcome) {
	rm := m.Payload.(*respMsg)
	return rm.id, rm.out
}

// Record has nothing to add to the transport's client counters.
func (h *handler) Record(sim.Time, *Call[*reqMsg]) {}

// Conn is one logical client connection to a server node.
type Conn struct {
	Link[*reqMsg]
	reqBytes int
}

// Dial opens a logical connection from this node to server. reqBytes
// is the request payload size; deadline (cycles, 0 = none) bounds each
// request issued on the connection.
func (n *Node) Dial(server int, reqBytes int, deadline sim.Time) *Conn {
	n.MapHeap(HeapBytes)
	return &Conn{Link: n.Connect(server, deadline), reqBytes: reqBytes}
}

// issue builds and transmits one request from p's context, measuring
// latency from issuedAt.
func (c *Conn) issue(p *sim.Proc, issuedAt sim.Time) *Call[*reqMsg] {
	ca := c.Open(issuedAt)
	c.Send(p, &reqMsg{conn: c.id, id: ca.ID, from: c.t.node, deadline: ca.Deadline}, 16, c.reqBytes)
	return ca
}

// Fire issues one request asynchronously (open loop): the response is
// recorded when it arrives; latency is measured from issuedAt.
func (c *Conn) Fire(p *sim.Proc, issuedAt sim.Time) {
	c.issue(p, issuedAt)
}

// Call issues one request and blocks until its response arrives
// (closed loop). It reports the outcome; the latency sample is
// recorded by the response handler.
func (c *Conn) Call(p *sim.Proc) Outcome {
	p.Sync()
	ca := c.issue(p, p.Local())
	ca.Wait(p)
	return ca.Out
}
