package dsm

import (
	"fmt"
	"sort"

	"cni/internal/nic"
	"cni/internal/sim"
)

// This file holds the message handlers. They run in kernel-event
// context: on the CNI board they model Application Interrupt Handlers
// executing on the NIC's receive processor; on the standard interface
// the nic layer has already charged the interrupt, kernel receive and
// host protocol costs before invoking them on the host.

// dispatchLocal routes a message addressed to this node without going
// through the fabric (manager-is-self fast path): a direct call of the
// op's handler. The caller has already synchronized, so at is the
// current kernel time.
func (r *Runtime) dispatchLocal(at sim.Time, m *nic.Message) {
	r.ops[m.Op-OpDiff](at, m)
}

// send routes m: a direct handler call for self-addressed messages, the
// board otherwise. Used from handler context (replies, grants).
func (r *Runtime) send(at sim.Time, m *nic.Message) {
	if m.To == r.node {
		r.dispatchLocal(at, m)
		return
	}
	r.board.SendAt(at, m)
}

// --- diffs and pages ---

// parkOrForward handles a page request or diff that arrived at a
// non-owner under distributed ownership. With a write fetch of our own
// outstanding we are the probable future owner, so the message parks
// here until the fetch resolves; otherwise it is forwarded one hop
// down the probable-owner chain. Forwards are issued by the protocol
// handler — on the CNI that is the board's receive processor and the
// re-send is free to the host (SendAt costs it nothing); on
// OSIRIS/standard each hop pays the host interrupt + kernel/ADC path
// the arrival already charged plus the host send.
func (r *Runtime) parkOrForward(at sim.Time, m *nic.Message, page int32) {
	if r.pages[page].fetchingW {
		b := r.book(page)
		b.pendingOwn = append(b.pendingOwn, m)
		return
	}
	r.forwardOwn(at, m)
}

// forwardOwn sends a misdelivered page request or diff one hop toward
// the current owner. Write requests compress the chain: the requester
// is about to become the owner, so this node's pointer is rewritten to
// it (Li/Hudak). A hop budget turns a non-converging chain into a loud
// bug instead of a livelock.
func (r *Runtime) forwardOwn(at sim.Time, m *nic.Message) {
	var page int32
	var hops *int
	compressTo := -1
	switch m.Op {
	case OpPageReq:
		req := m.Payload.(*pageReqMsg)
		page, hops = req.page, &req.hops
		if req.write {
			compressTo = req.from
		}
	case OpDiff:
		d := m.Payload.(*diffMsg)
		page, hops = d.page, &d.hops
	default:
		panic(fmt.Sprintf("dsm: node %d forwarding op %d", r.node, m.Op))
	}
	target := r.probOwnerOf(page)
	if target == r.node {
		panic(fmt.Sprintf("dsm: node %d forwarding page %d message to itself", r.node, page))
	}
	*hops++
	if *hops > 4*len(r.G.nodes)+8 {
		panic(fmt.Sprintf("dsm: node %d page %d probable-owner chain did not converge after %d hops",
			r.node, page, *hops))
	}
	if compressTo >= 0 {
		r.pages[page].probOwner = compressTo
	}
	r.Stats.Forwards++
	r.send(at, &nic.Message{
		From: r.node, To: target, Op: m.Op, Size: m.Size, Payload: m.Payload,
	})
}

// drainPendingOwn re-dispatches the messages parked across this node's
// write fetch: locally when the fetch won ownership, down the chain to
// the node that served us when the owner declined to migrate.
func (r *Runtime) drainPendingOwn(at sim.Time, page int32) {
	b := r.book(page)
	parked := b.pendingOwn
	b.pendingOwn = nil
	for _, pm := range parked {
		if r.pages[page].owned {
			r.dispatchLocal(at, pm)
		} else {
			r.forwardOwn(at, pm)
		}
	}
}

// onDiff applies a releaser's diff to the home copy and unparks any
// version-gated page requests it satisfies.
func (r *Runtime) onDiff(at sim.Time, m *nic.Message) {
	d := m.Payload.(*diffMsg)
	if !r.pages[d.page].owned {
		if !r.distributed {
			panic(fmt.Sprintf("dsm: node %d got diff for page %d homed at %d",
				r.node, d.page, r.G.homeOf(d.page)))
		}
		r.parkOrForward(at, m, d.page)
		return
	}
	r.Stats.OwnerMsgs++
	words := r.pages[d.page].words
	for _, e := range d.entries {
		words[e.off] = e.val
	}
	r.Stats.DiffsApplied++
	b := r.book(d.page)
	if d.idx > b.applied[d.writer] {
		b.applied[d.writer] = d.idx
	}
	if r.cfg.UpdateProtocol {
		r.forwardUpdate(at, d)
	}
	r.drainWaiting(at, d.page)
}

// forwardUpdate pushes a just-applied diff to every copy holder (the
// eager-update protocol): their copies stay valid instead of going
// stale, at the price of one message per holder per release.
func (r *Runtime) forwardUpdate(at sim.Time, d *diffMsg) {
	b := r.book(d.page)
	for _, member := range sortedMembers(b.copyset) {
		if member == d.writer || member == r.node {
			continue
		}
		diffBytes := 12 * len(d.entries)
		if diffBytes > r.cfg.PageBytes {
			diffBytes = r.cfg.PageBytes
		}
		r.send(at, &nic.Message{
			From: r.node, To: member, Op: OpUpdate,
			Size:         nic.HeaderBytes + 12 + diffBytes,
			VAddr:        r.vaddrOfPage(d.page),
			NoFlush:      true,
			DeliverVAddr: r.vaddrOfPage(d.page),
			DeliverBytes: diffBytes,
			Payload:      &updateMsg{diff: d, seenOfMember: b.applied[member]},
		})
	}
}

// sortedMembers renders a copyset deterministically.
func sortedMembers(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Ints(out)
	return out
}

// onUpdate applies a forwarded diff at a copy holder (update protocol)
// and releases any stalled access.
func (r *Runtime) onUpdate(at sim.Time, m *nic.Message) {
	u := m.Payload.(*updateMsg)
	d := u.diff
	pg, b := &r.pages[d.page], r.book(d.page)
	if pg.state == pageInvalid {
		// The copy was dropped; the next access refetches, so the
		// update is moot.
		return
	}
	// Write-ordering guard: if this node has written the page more
	// recently than the home had seen when it sent the push, or holds
	// uncommitted writes to it, the pushed values may roll this node's
	// own writes back. Drop the copy and fall back to the (version-
	// gated) fault path, which merges correctly.
	if u.seenOfMember < pg.lastWrote || pg.dirty {
		r.setState(d.page, pageInvalid)
		r.Stats.Invalidates++
		b.need(d.writer, d.idx)
		if b.homeStalled {
			// The worker was waiting for this push; wake it so its
			// access loop refaults instead.
			b.homeStalled = false
			r.wakeWorker(at, waitPage)
		}
		return
	}
	words, tw := pg.words, b.twin
	for _, e := range d.entries {
		words[e.off] = e.val
		if tw != nil {
			// Keep the twin in step so this node's own next diff does
			// not re-ship the forwarded words as its own.
			tw[e.off] = e.val
		}
	}
	if d.idx > b.applied[d.writer] {
		b.applied[d.writer] = d.idx
	}
	// The DMA rewrote host memory under the caches.
	if r.worker != nil {
		r.worker.pendingCharge += r.worker.mem.InvalidateRange(
			r.vaddrOfPage(d.page), r.cfg.PageBytes)
	}
	r.drainWaiting(at, d.page)
}

// drainWaiting replies to parked page requests that are now satisfied
// and unstalls the home's own worker if its requirements are met.
func (r *Runtime) drainWaiting(at sim.Time, page int32) {
	b := r.book(page)
	var still []waitReq
	for _, w := range b.waiting {
		if b.satisfied(w.req) {
			r.sendPageReply(at, w.req)
		} else {
			still = append(still, w)
		}
	}
	b.waiting = still
	if b.homeStalled && b.satisfiedNeeds() {
		b.homeStalled = false
		r.setState(page, pageValid)
		clear(b.needs)
		r.wakeWorker(at, waitPage)
	}
}

// onPageReq serves (or parks) a page fetch at the home/owner; under
// distributed ownership a request that lands on a past owner is parked
// or forwarded down the probable-owner chain instead.
func (r *Runtime) onPageReq(at sim.Time, m *nic.Message) {
	req := m.Payload.(*pageReqMsg)
	if !r.pages[req.page].owned {
		if !r.distributed {
			panic(fmt.Sprintf("dsm: node %d got page request for page %d homed at %d",
				r.node, req.page, r.G.homeOf(req.page)))
		}
		r.parkOrForward(at, m, req.page)
		return
	}
	r.Stats.OwnerMsgs++
	b := r.book(req.page)
	if b.satisfied(req) {
		r.sendPageReply(at, req)
		return
	}
	b.waiting = append(b.waiting, waitReq{req: req, at: at})
}

// canGrant decides whether serving req should also migrate ownership
// to the requester (distributed ownership, write faults only). The
// grant requires a clean, quiescent owner copy: fully caught up on
// noticed diffs, no uncommitted local writes, no parked requests and
// no stalled worker — everything the page's manager state says is
// captured by the applied vector the reply already carries, so the
// grant adds no state transfer beyond the page itself.
func (r *Runtime) canGrant(req *pageReqMsg) bool {
	if !r.distributed || !req.write || req.from == r.node {
		return false
	}
	pg, b := &r.pages[req.page], r.book(req.page)
	return pg.state == pageValid && !pg.dirty && !b.homeStalled &&
		len(b.waiting) == 0 && b.satisfiedNeeds()
}

// sendPageReply ships the owner's (flushed-at-release) copy of the
// page. The page buffer is Message Cache eligible on both ends: the
// home binds it on the transmit path and the requester binds the
// arrival (receive caching), which is what makes later page migrations
// and diff sends cheap. Under distributed ownership a clean write
// fault migrates ownership with the page.
func (r *Runtime) sendPageReply(at sim.Time, req *pageReqMsg) {
	r.Stats.PageFetches++
	r.trace.Addf(at, r.node, "serve", "page %d -> node %d", req.page, req.from)
	vaddr := r.vaddrOfPage(req.page)
	b := r.book(req.page)
	if !b.exported {
		// First export of this page: the home's CPU flushes it to
		// memory before the board can transfer it; from now on the
		// page is flushed at every release instead.
		b.exported = true
		cost := r.board.FlushBuffer(vaddr, r.cfg.PageBytes)
		r.board.PenalizeHost(cost)
		at += cost
	}
	if r.cfg.UpdateProtocol {
		if b.copyset == nil {
			b.copyset = make(map[int]bool)
		}
		b.copyset[req.from] = true
	}
	own := r.canGrant(req)
	if own {
		// The requester becomes the page's owner and manager; this
		// node keeps its (still current) copy as an ordinary holder
		// and points its chain at the new owner. The manager state
		// travels as the applied snapshot on the reply.
		pg := &r.pages[req.page]
		pg.owned = false
		pg.probOwner = req.from
	}
	r.send(at, &nic.Message{
		From:         r.node,
		To:           req.from,
		Op:           OpPageReply,
		Size:         nic.HeaderBytes + r.cfg.PageBytes,
		VAddr:        vaddr,
		CacheTx:      true,
		NoFlush:      true, // home memory was flushed at the writer's release
		DeliverVAddr: vaddr,
		DeliverBytes: r.cfg.PageBytes,
		CacheRx:      req.write,
		Payload: &pageReplyMsg{
			page: req.page, from: r.node, own: own, req: req,
			applied: append([]int32(nil), b.applied...),
		},
	})
}

// onPageReply installs an arriving page at the requester: copy the
// serving owner's words, reapply any preserved local modifications
// (multiple-writer merge), revalidate, and wake the faulting worker.
// Under distributed ownership the reply also resolves the requester's
// probable-owner pointer and, on a grant, makes it the page's owner.
func (r *Runtime) onPageReply(at sim.Time, m *nic.Message) {
	rep := m.Payload.(*pageReplyMsg)
	page := rep.page
	pg, b := &r.pages[page], r.book(page)
	r.copyPageFrom(page, rep.from)
	// Preserve this node's own uncommitted writes over the fetched base:
	// fault saved them in b.local because the page is twinned.
	if tw := b.twin; tw != nil {
		// New twin is the fetched base, so the next diff still carries
		// the local writes forward.
		copy(tw, pg.words)
		for _, e := range b.local {
			pg.words[e.off] = e.val
		}
		b.local = nil
	}
	// Clear only the requirements this reply was gated on. Notices that
	// raced the fetch stay pending, the page stays invalid, and the
	// worker's access loop refaults with the updated requirements.
	for _, nd := range rep.req.need {
		if b.needs[nd.Node] <= nd.Idx {
			b.needs[nd.Node] = 0
		}
	}
	if r.cfg.UpdateProtocol || rep.own {
		// Seed this copy's applied tracking with the server's at reply
		// time. Under the update protocol, diffs already folded into the
		// fetched copy will never be forwarded again; on a grant, this
		// is the old owner's manager state passing to the new owner.
		for n, idx := range rep.applied {
			if idx > b.applied[n] {
				b.applied[n] = idx
			}
		}
	}
	if r.distributed {
		r.Stats.Chain.observe(rep.req.hops)
	}
	pg.fetchingW = false
	pg.probOwner = rep.from
	if rep.own {
		// This node is the page's owner and manager now, and keeps
		// flushing at releases (the old owner still holds a copy, so
		// transfers are impending).
		r.Stats.Migrations++
		pg.owned = true
		pg.probOwner = r.node
		b.exported = true
	}
	if b.pendingNeeds() == 0 {
		r.setState(page, pageValid)
	} else if pg.owned {
		// A new owner never refaults: with noticed diffs still in
		// flight (they are chasing the chain toward us) the page goes
		// home-stale and the worker stalls until they land.
		if b.satisfiedNeeds() {
			r.setState(page, pageValid)
			clear(b.needs)
		} else {
			r.setState(page, pageHomeStale)
		}
	}
	// The DMA overwrote host memory beneath the caches; the worker pays
	// the invalidation when it resumes.
	inval := r.worker.mem.InvalidateRange(r.vaddrOfPage(page), r.cfg.PageBytes)
	r.worker.pendingCharge += inval
	r.drainPendingOwn(at, page)
	r.wakeWorker(at, waitPage)
}

// --- locks ---

func (r *Runtime) onLockAcq(at sim.Time, m *nic.Message) {
	req := m.Payload.(*lockAcqMsg)
	r.Stats.OwnerMsgs++
	ls := r.locks[req.lock]
	if ls == nil {
		ls = &lockState{}
		r.locks[req.lock] = ls
	}
	if ls.held {
		ls.queue = append(ls.queue, req)
		return
	}
	ls.held = true
	ls.holder = req.from
	r.sendGrant(at, req)
}

func (r *Runtime) sendGrant(at sim.Time, req *lockAcqMsg) {
	bundle := r.newIntervalBundleSince(req.vc)
	nb := noticeBytes(bundle)
	mvc := append([]int32(nil), r.vc...)
	size := nic.HeaderBytes + 4*len(mvc) + nb
	msg := &nic.Message{
		From: r.node, To: req.from, Op: OpLockGrant, Size: size,
		Payload: &lockGrantMsg{lock: req.lock, notices: bundle, managerVC: mvc},
	}
	if nb > 0 && req.from != r.node {
		msg.DeliverVAddr = MailboxBase
		msg.DeliverBytes = nb
	}
	r.send(at, msg)
}

func (r *Runtime) onLockGrant(at sim.Time, m *nic.Message) {
	g := m.Payload.(*lockGrantMsg)
	fresh := r.absorbIntervals(g.notices)
	r.applyWriteNotices(fresh)
	r.grantVC[g.lock] = g.managerVC
	r.worker.pendingCharge += r.cfg.NoticeCycles * sim.Time(len(fresh))
	r.wakeWorker(at, waitLock)
}

func (r *Runtime) onLockRel(at sim.Time, m *nic.Message) {
	rel := m.Payload.(*lockRelMsg)
	r.Stats.OwnerMsgs++
	fresh := r.absorbIntervals(rel.notices)
	r.applyWriteNotices(fresh)
	ls := r.locks[rel.lock]
	if ls == nil || !ls.held || ls.holder != rel.from {
		panic(fmt.Sprintf("dsm: node %d got release of lock %d from non-holder %d",
			r.node, rel.lock, rel.from))
	}
	if len(ls.queue) == 0 {
		ls.held = false
		return
	}
	next := ls.queue[0]
	ls.queue = ls.queue[1:]
	ls.holder = next.from
	r.sendGrant(at, next)
}

// --- barriers ---

func (r *Runtime) onBarEnter(at sim.Time, m *nic.Message) {
	e := m.Payload.(*barEnterMsg)
	r.Stats.OwnerMsgs++
	fresh := r.absorbIntervals(e.notices)
	r.applyWriteNotices(fresh)
	bs := r.bars[e.barrier]
	if bs == nil {
		bs = &barrierState{}
		r.bars[e.barrier] = bs
	}
	bs.arrived++
	bs.enters = append(bs.enters, e)
	if bs.arrived < len(r.G.nodes) {
		return
	}
	// Everyone is here: redistribute what each participant is missing.
	mvc := append([]int32(nil), r.vc...)
	for _, enter := range bs.enters {
		bundle := r.newIntervalBundleSince(enter.vc)
		nb := noticeBytes(bundle)
		msg := &nic.Message{
			From: r.node, To: enter.from, Op: OpBarRelease,
			Size:    nic.HeaderBytes + 4*len(mvc) + nb,
			Payload: &barReleaseMsg{notices: bundle, managerVC: mvc},
		}
		if nb > 0 && enter.from != r.node {
			msg.DeliverVAddr = MailboxBase
			msg.DeliverBytes = nb
		}
		r.send(at, msg)
	}
	delete(r.bars, e.barrier)
}

func (r *Runtime) onBarRelease(at sim.Time, m *nic.Message) {
	rel := m.Payload.(*barReleaseMsg)
	r.leaveBarrier(at, rel.notices, rel.managerVC)
}

// leaveBarrier releases this node's worker from its barrier, through
// the manager or the collective engine: it absorbs the write notices
// the release carries, takes vc as the clock of the last barrier,
// charges the notice handling and wakes the worker. The first release
// of each barrier, when every worker has arrived and none has resumed,
// runs the test hook Globals.onBarrier if one is set.
func (r *Runtime) leaveBarrier(at sim.Time, notices []*Interval, vc []int32) {
	if g := r.G; g.onBarrier != nil && r.Stats.BarrierOps > g.barriersReleased {
		g.barriersReleased = r.Stats.BarrierOps
		g.onBarrier()
	}
	fresh := r.absorbIntervals(notices)
	r.applyWriteNotices(fresh)
	copy(r.lastBarVC, vc)
	r.worker.pendingCharge += r.cfg.NoticeCycles * sim.Time(len(fresh))
	r.wakeWorker(at, waitBarrier)
}

// --- bag of tasks ---

func (r *Runtime) onTaskReq(at sim.Time, m *nic.Message) {
	req := m.Payload.(*taskReqMsg)
	r.Stats.OwnerMsgs++
	r.trace.Addf(at, r.node, "task", "request from node %d", req.from)
	g := r.G
	switch {
	case g.taskNext < len(g.taskBag):
		task := g.taskBag[g.taskNext]
		g.taskNext++
		r.replyTask(at, req.from, task)
	case g.taskTotal == 0 || g.taskDone >= g.taskTotal:
		r.replyTask(at, req.from, -1)
	default:
		// Bag temporarily empty but work is still in flight: park the
		// requester until a push or the final completion.
		g.taskParked = append(g.taskParked, req)
	}
}

func (r *Runtime) replyTask(at sim.Time, to, task int) {
	r.send(at, &nic.Message{
		From: r.node, To: to, Op: OpTaskReply,
		Size:    nic.HeaderBytes + 8,
		Payload: &taskReplyMsg{task: task},
	})
}

// onTaskPush absorbs newly enabled tasks and completions, then feeds
// parked requesters.
func (r *Runtime) onTaskPush(at sim.Time, m *nic.Message) {
	push := m.Payload.(*taskPushMsg)
	r.Stats.OwnerMsgs++
	g := r.G
	g.taskBag = append(g.taskBag, push.tasks...)
	g.taskDone += push.done
	finished := g.taskTotal > 0 && g.taskDone >= g.taskTotal
	for len(g.taskParked) > 0 {
		if g.taskNext < len(g.taskBag) {
			req := g.taskParked[0]
			g.taskParked = g.taskParked[1:]
			task := g.taskBag[g.taskNext]
			g.taskNext++
			r.replyTask(at, req.from, task)
			continue
		}
		if finished {
			req := g.taskParked[0]
			g.taskParked = g.taskParked[1:]
			r.replyTask(at, req.from, -1)
			continue
		}
		break
	}
}

func (r *Runtime) onTaskReply(at sim.Time, m *nic.Message) {
	rep := m.Payload.(*taskReplyMsg)
	r.worker.taskResult = rep.task
	r.wakeWorker(at, waitTask)
}

// wakeWorker resumes this node's application thread. On the CNI the
// application learns of the completion by polling its device channel;
// on the standard interface the nic layer already included the
// interrupt and kernel receive latency before the handler ran.
func (r *Runtime) wakeWorker(at sim.Time, why waitKind) {
	w := r.worker
	if w == nil {
		panic(fmt.Sprintf("dsm: node %d woke with no worker", r.node))
	}
	// waiting == waitNone happens when the reply was produced
	// synchronously (local manager fast path) before the worker reached
	// its block; Proc.Block buffers the wake token for that case.
	if w.waiting != why && w.waiting != waitNone {
		panic(fmt.Sprintf("dsm: node %d woke worker for %v while it waits for %v",
			r.node, why, w.waiting))
	}
	at += r.board.WakeDelay()
	w.proc.WakeAt(at)
}

// sortedNeeds renders a page's pending write notices as a requirement
// list for a version-gated fetch, in writer order.
func (b *pageBook) sortedNeeds() []Interval {
	n := b.pendingNeeds()
	if n == 0 {
		return nil
	}
	out := make([]Interval, 0, n)
	for w, idx := range b.needs {
		if idx != 0 {
			out = append(out, Interval{Node: w, Idx: idx})
		}
	}
	return out
}
