package rpc

// The serving transport: everything a request/response service needs
// from a node's Application Device Channel queues, written once for the
// rpc and kv services. A service describes where it lives (Service) and
// supplies a Handler — what a request is, what serving it costs, what
// its responses look like — and the Transport does the rest: on the
// client, node-local connection ids, the pending-call map and response
// matching; on the server, per-class receive-buffer credits settled
// onto the device channels' free rings, admission into one bounded work
// queue, Shed or Delay for what cannot be admitted, and the server
// loop.

import (
	"fmt"
	"slices"

	"cni/internal/adc"
	"cni/internal/config"
	"cni/internal/nic"
	"cni/internal/sim"
	"cni/internal/tenant"
)

// Service places a service on a node: its operation block, its pinned
// heap, and where the transport's counters go.
type Service struct {
	// Name prefixes the transport's panic messages ("rpc", "kv").
	Name string
	// Op is the request operation; the response is Op+1 and the
	// client-finished marker Op+2.
	Op uint32
	// Heap is the base of the node's pinned service heap. Pages 1..63
	// are the per-connection request buffers.
	Heap uint64
	// Rx is the arrival window: where request and response data land,
	// and the buffer every free-queue descriptor names.
	Rx uint64
	// Stats and Lat receive the transport's counters and the exact
	// latency samples of OK calls.
	Stats *Stats
	Lat   *Latencies
}

// Handler is the service half of a serving node: the parts of serving
// that differ between services.
type Handler[R any] interface {
	// Decode reads an arriving request and names its credit class;
	// ok=false drops the arrival unanswered (the service counts it).
	Decode(m *nic.Message) (req R, class int, ok bool)
	// Throttle is the pre-admission check, run before the request
	// claims a receive buffer: true refuses it as Throttled.
	Throttle(at sim.Time, req R) bool
	// Deadline is the request's absolute deadline, 0 for none.
	Deadline(req R) sim.Time
	// Service is the CPU cost of serving the request.
	Service(req R) sim.Time
	// Respond answers a served request from the server's proc.
	Respond(p *sim.Proc, req R)
	// Refuse ends a request unserved with out (Rejected, Throttled or
	// Expired) and returns the small control response that carries it.
	Refuse(req R, out Outcome) *nic.Message
	// Reply reads an arriving response: the call it answers and the
	// call's outcome.
	Reply(m *nic.Message) (id uint64, out Outcome)
	// Record does the service's own client-side bookkeeping once a call
	// has finished and the transport has counted it.
	Record(at sim.Time, ca *Call[R])
}

// Class is one credit class of a server: its scheduling contract, its
// receive buffers, and the device channel whose free ring mirrors them.
type Class struct {
	tenant.Class
	// Bufs is the class's receive-buffer budget (its credits).
	Bufs int
	// Ring is the channel whose free queue is settled to the credits
	// (nil on a board without channels).
	Ring *adc.Channel
}

// parked is one request held back by the Delay policy. holds records
// whether the arrival got a receive buffer (and so owns a credit)
// before the work queue turned it away; a dry-queue arrival waits for
// a credit as well as a work-queue slot.
type parked[R any] struct {
	req   R
	class int
	holds bool
}

// Transport is one node's serving transport for one service. A service
// node embeds it and calls Attach once.
type Transport[R any] struct {
	s         Service
	h         Handler[R]
	b         *nic.Board
	node      int
	pageBytes int
	mapped    int // heap bytes pinned so far

	// Server state. credits[i] is class i's free receive buffers, the
	// authority admission reads.
	serving  bool
	sc       ServerConfig
	credits  []int
	rings    []*adc.Channel
	workq    *tenant.Sched[R]
	parkedq  []parked[R]
	proc     *sim.Proc
	doneSeen int

	// Client state.
	servers  []int // dialed servers, in first-dial order
	nextConn uint32
	nextID   uint64
	pending  map[uint64]*Call[R] // made by the first Open
	waiter   *sim.Proc           // client blocked in WaitIdle
}

// Attach registers the service's protocol handlers on b. Registration
// alone costs nothing at run time; the heap mapping and free-buffer
// preposting happen only when a role is configured (Listen / Connect),
// so clusters that never speak the service are untouched.
func (t *Transport[R]) Attach(cfg *config.Config, b *nic.Board, s Service, h Handler[R]) {
	*t = Transport[R]{
		s:         s,
		h:         h,
		b:         b,
		node:      b.Node(),
		pageBytes: cfg.PageBytes,
	}
	b.Register(s.Op, false, t.onRequest)
	b.Register(s.Op+1, false, t.onResponse)
	b.Register(s.Op+2, false, t.onDone)
}

// MapHeap pins the first bytes of the service heap (device-channel
// region registration plus TLB entries on the CNI; no-op on the
// standard board). Only the part not pinned yet is mapped.
func (t *Transport[R]) MapHeap(bytes int) {
	if bytes <= t.mapped {
		return
	}
	t.b.MapPages(t.s.Heap+uint64(t.mapped), bytes-t.mapped)
	t.mapped = bytes
}

// Listen makes the node a server over the given credit classes, with
// one work-queue slot budget of sc.WorkQueue per class. Call before the
// simulation runs; the free buffers are preposted outside simulated
// time, the OSIRIS setup discipline.
func (t *Transport[R]) Listen(sc ServerConfig, classes []Class) {
	if sc.WorkQueue <= 0 || sc.FreeBufs <= 0 {
		panic(fmt.Sprintf("%s: node %d server with work queue %d, free bufs %d",
			t.s.Name, t.node, sc.WorkQueue, sc.FreeBufs))
	}
	t.serving = true
	t.sc = sc
	contracts := make([]tenant.Class, len(classes))
	t.credits = make([]int, len(classes))
	t.rings = make([]*adc.Channel, len(classes))
	for i, c := range classes {
		contracts[i], t.credits[i], t.rings[i] = c.Class, c.Bufs, c.Ring
	}
	t.workq = tenant.NewSched[R](contracts, sc.WorkQueue)
	t.settle()
}

// settle brings every class's free ring to exactly its credit count.
// The credits are the authority, since admission reads them. rpc's one
// class is the board's own channel, which the board pops on every
// host-path arrival at arrival time while the accounting runs at
// handler time; settling after every handler and every completion
// makes free-queue exhaustion on the wire and in the accounting
// coincide. The channels kv opens per tenant are never popped by the
// board, so for them settling just mirrors the credits.
func (t *Transport[R]) settle() {
	for i, ring := range t.rings {
		if ring == nil {
			continue
		}
		for ring.Free.Len() > t.credits[i] {
			ring.Free.Pop()
		}
		for ring.Free.Len() < t.credits[i] {
			if err := ring.PostFree(adc.Descriptor{VAddr: t.s.Rx, Len: t.pageBytes}); err != nil {
				panic(fmt.Sprintf("%s: node %d posting class %d free buffer: %v", t.s.Name, t.node, i, err))
			}
		}
	}
}

// onRequest is the server-side arrival handler, running at host-notify
// time.
func (t *Transport[R]) onRequest(at sim.Time, m *nic.Message) {
	if !t.serving {
		panic(fmt.Sprintf("%s: node %d received a request but is not serving", t.s.Name, t.node))
	}
	if req, cl, ok := t.h.Decode(m); ok {
		t.admit(at, req, cl)
	}
	t.settle()
}

// admit is admission control, in order: the service's pre-admission
// check, then a receive buffer from the class's free queue, then a
// work-queue slot. A request that fails the last two is shed or parked
// by policy.
func (t *Transport[R]) admit(at sim.Time, req R, cl int) {
	if t.h.Throttle(at, req) {
		t.b.SendAt(at, t.h.Refuse(req, Throttled))
		return
	}
	if t.credits[cl] <= 0 {
		// Free queue dry: the request data has no receive buffer.
		t.s.Stats.FreeDry++
		t.turnAway(at, req, cl, false)
		return
	}
	t.credits[cl]--
	if !t.enqueue(cl, req) {
		t.s.Stats.QueueFull++
		t.turnAway(at, req, cl, true)
		return
	}
	if t.proc != nil {
		t.proc.WakeAt(at)
	}
}

// turnAway handles an arrival admission could not take. Shed answers
// it at once with a reject from board/handler context — a small inline
// control message, no buffer, no DMA (on the standard interface SendAt
// charges the kernel send path to the host CPU, as a kernel-issued
// reject would) — and returns any receive buffer it claimed. Delay
// parks it: the board retains the PDU in its memory (the kernel, in an
// sk_buff, on the standard interface) until a buffer and a slot free.
func (t *Transport[R]) turnAway(at sim.Time, req R, cl int, holds bool) {
	if t.sc.Policy == Shed {
		t.b.SendAt(at, t.h.Refuse(req, Rejected))
		if holds {
			t.credits[cl]++
		}
		return
	}
	t.parkedq = append(t.parkedq, parked[R]{req: req, class: cl, holds: holds})
	t.s.Stats.Delayed++
	t.s.Stats.ParkedPeak = max(t.s.Stats.ParkedPeak, len(t.parkedq))
}

// enqueue queues req for the server loop, reporting false when class
// cl's queue is full.
func (t *Transport[R]) enqueue(cl int, req R) bool {
	if !t.workq.Push(cl, req) {
		return false
	}
	t.s.Stats.QueuePeak = max(t.s.Stats.QueuePeak, t.workq.Len())
	return true
}

// complete returns a served request's receive buffer to class cl and
// admits parked requests, oldest first, while the head's class has a
// queue slot and, if it was parked without a buffer, a credit.
func (t *Transport[R]) complete(cl int) {
	t.credits[cl]++
	for len(t.parkedq) > 0 {
		pe := t.parkedq[0]
		if t.workq.QueueLen(pe.class) >= t.sc.WorkQueue {
			break
		}
		if !pe.holds {
			if t.credits[pe.class] <= 0 {
				break
			}
			t.credits[pe.class]--
		}
		t.parkedq = t.parkedq[1:]
		t.enqueue(pe.class, pe.req)
	}
	t.settle()
}

// Serve runs the server loop on p: pop the scheduler's pick, charge the
// dequeue cost, answer an expired request with a small marker or charge
// the service cost and respond, and return the receive buffer. It
// returns once every client has sent its done marker and the queues are
// empty.
func (t *Transport[R]) Serve(p *sim.Proc) {
	if !t.serving {
		panic(fmt.Sprintf("%s: node %d Serve without StartServer", t.s.Name, t.node))
	}
	t.proc = p
	dequeue := t.b.RecvDequeueCost()
	for {
		for t.workq.Len() > 0 {
			req, cl, _ := t.workq.Pop()
			p.Advance(dequeue)
			p.Sync()
			if d := t.h.Deadline(req); d > 0 && p.Local() > d {
				// The deadline passed while the request sat queued: skip
				// the service work.
				t.s.Stats.Served++
				t.b.Send(p, t.h.Refuse(req, Expired))
			} else {
				p.Advance(t.h.Service(req))
				p.Sync()
				t.s.Stats.Served++
				t.h.Respond(p, req)
			}
			t.complete(cl)
		}
		if t.doneSeen >= t.sc.Clients && t.workq.Len() == 0 && len(t.parkedq) == 0 {
			return
		}
		p.Block()
	}
}

// onDone is the server-side client-finished marker.
func (t *Transport[R]) onDone(at sim.Time, _ *nic.Message) {
	t.doneSeen++
	if t.proc != nil {
		t.proc.WakeAt(at)
	}
	t.settle()
}

// Link is one logical client connection to a server node. Many links
// multiplex over the node's single device channel; the link id rides in
// the header's Aux word, so PATHFINDER could demultiplex per connection
// if a handler asked it to.
type Link[R any] struct {
	t        *Transport[R]
	id       uint32
	server   int
	deadline sim.Time // relative; 0 = none
}

// Connect opens a link from this node to server; deadline (cycles,
// 0 = none) bounds each request issued on it. The service pins the
// heap its requests leave from first.
func (t *Transport[R]) Connect(server int, deadline sim.Time) Link[R] {
	if server == t.node {
		panic(fmt.Sprintf("%s: node %d dialing itself", t.s.Name, t.node))
	}
	// Connection ids are node-local (dialing node in the high half, the
	// node's dial sequence in the low): a cluster-global counter would
	// make ids depend on the cross-node interleaving of Dial calls,
	// which sharded runs execute concurrently.
	l := Link[R]{t: t, id: uint32(t.node)<<16 | t.nextConn, server: server, deadline: deadline}
	t.nextConn++
	if !slices.Contains(t.servers, server) {
		t.servers = append(t.servers, server)
	}
	return l
}

// ID is the link's connection id.
func (l *Link[R]) ID() uint32 { return l.id }

// Server reports the node the link is dialed to.
func (l *Link[R]) Server() int { return l.server }

// Call is one client request, from issue until its response arrives.
type Call[R any] struct {
	Req      R        // the request as issued (set by the service)
	ID       uint64   // request id, unique per client node
	Issued   sim.Time // latency origin
	Deadline sim.Time // absolute; 0 = none
	Out      Outcome  // set when the response arrives
	Reply    any      // the response payload

	waiter *sim.Proc // closed-loop caller blocked on this call
	done   bool
}

// Open registers a new call on l, measuring latency from issuedAt. For
// open-loop clients issuedAt is the scheduled arrival, which may be
// earlier than the proc's clock when the send path itself is backed up
// — that backup is part of the measured latency (no coordinated
// omission). The service builds its request from the call's ID and
// Deadline and transmits it with Send.
func (l *Link[R]) Open(issuedAt sim.Time) *Call[R] {
	t := l.t
	ca := &Call[R]{ID: t.nextID, Issued: issuedAt}
	t.nextID++
	if l.deadline > 0 {
		ca.Deadline = issuedAt + l.deadline
	}
	if t.pending == nil {
		t.pending = make(map[uint64]*Call[R])
	}
	t.pending[ca.ID] = ca
	t.s.Stats.Issued++
	return ca
}

// Send transmits a request payload on l from p's context: hdr bytes of
// service header plus data bytes delivered into the server's arrival
// window. It leaves from the link's request buffer (reused across the
// link's requests, so the Message Cache binds it once and later
// requests are transmit hits).
func (l *Link[R]) Send(p *sim.Proc, payload any, hdr, data int) {
	t := l.t
	m := &nic.Message{
		From: t.node, To: l.server, Op: t.s.Op, Aux: l.id,
		Size:    nic.HeaderBytes + hdr + data,
		VAddr:   t.s.Heap + uint64(1+l.id%63)*uint64(t.pageBytes),
		CacheTx: true,
		Payload: payload,
	}
	if data > 0 {
		m.DeliverVAddr = t.s.Rx
		m.DeliverBytes = data
	}
	t.b.Send(p, m)
}

// Wait blocks p until the call's response has arrived.
func (ca *Call[R]) Wait(p *sim.Proc) {
	ca.waiter = p
	for !ca.done {
		p.Block()
	}
	ca.waiter = nil
}

// Outstanding reports the number of requests awaiting responses.
func (t *Transport[R]) Outstanding() int { return len(t.pending) }

// WaitIdle blocks p until every issued request has a terminal outcome.
func (t *Transport[R]) WaitIdle(p *sim.Proc) {
	p.Sync()
	for len(t.pending) > 0 {
		t.waiter = p
		p.Block()
		t.waiter = nil
	}
}

// Done tells every dialed server this client is finished; servers exit
// once all clients are done and their queues drain. Call after
// WaitIdle.
func (t *Transport[R]) Done(p *sim.Proc) {
	for _, s := range t.servers {
		t.b.Send(p, &nic.Message{From: t.node, To: s, Op: t.s.Op + 2, Size: nic.HeaderBytes + 8})
	}
}

// onResponse is the client-side arrival handler: match the request id,
// count the outcome and the latency sample, let the service record its
// own view, and wake whoever waits.
func (t *Transport[R]) onResponse(at sim.Time, m *nic.Message) {
	id, out := t.h.Reply(m)
	ca, ok := t.pending[id]
	if !ok {
		panic(fmt.Sprintf("%s: node %d response for unknown request %d", t.s.Name, t.node, id))
	}
	delete(t.pending, id)
	ca.done, ca.Out, ca.Reply = true, out, m.Payload
	// The application-side dequeue (ADC receive-queue pop) costs the
	// host CPU if it is busy; a blocked (waiting) client absorbs it in
	// its wake-up latency like the notify costs.
	t.b.PenalizeHost(t.b.RecvDequeueCost())
	st := t.s.Stats
	switch out {
	case OK:
		st.Completed++
		t.s.Lat.Add(at - ca.Issued)
		st.Lat = t.s.Lat.Hist
		if ca.Deadline > 0 && at > ca.Deadline {
			st.DeadlineMiss++
		}
	case Rejected:
		st.Rejected++
	case Throttled:
		st.Throttled++
	case Expired:
		st.Expired++
	}
	t.h.Record(at, ca)
	if ca.waiter != nil {
		ca.waiter.WakeAt(at)
	} else if t.waiter != nil && len(t.pending) == 0 {
		t.waiter.WakeAt(at)
	}
	t.settle()
}
