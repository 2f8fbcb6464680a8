package dsm

import (
	"fmt"
	"math"
	"slices"

	"cni/internal/memsys"
	"cni/internal/nic"
	"cni/internal/sim"
)

// waitKind says what a blocked worker is waiting for, so a stray wake
// is a loud bug instead of a silent corruption.
type waitKind int

const (
	waitNone waitKind = iota
	waitPage
	waitLock
	waitBarrier
	waitTask
)

func (w waitKind) String() string {
	switch w {
	case waitNone:
		return "nothing"
	case waitPage:
		return "page"
	case waitLock:
		return "lock"
	case waitBarrier:
		return "barrier"
	case waitTask:
		return "task"
	default:
		return fmt.Sprintf("waitKind(%d)", int(w))
	}
}

// Worker is the application-facing DSM interface of one node: typed
// accessors over the shared region, locks, barriers and the task bag.
// Exactly one Worker runs per node, on its own simulated processor.
type Worker struct {
	r    *Runtime
	proc *sim.Proc
	mem  *memsys.Hierarchy

	waiting       waitKind
	pendingCharge sim.Time // handler-computed CPU costs folded at resume
	taskResult    int
}

// NewWorker attaches the application thread p (with its cache
// hierarchy) to the runtime.
func (r *Runtime) NewWorker(p *sim.Proc, mem *memsys.Hierarchy) *Worker {
	w := &Worker{r: r, proc: p, mem: mem}
	r.worker = w
	r.board.SetHostProc(p)
	return w
}

// Proc returns the worker's simulated processor.
func (w *Worker) Proc() *sim.Proc { return w.proc }

// Waiting describes what the worker is currently blocked on
// ("nothing", "page", "lock", "barrier", "task") — deadlock forensics.
func (w *Worker) Waiting() string { return w.waiting.String() }

// Node reports the worker's node id.
func (w *Worker) Node() int { return w.r.node }

// Nodes reports the cluster size.
func (w *Worker) Nodes() int { return len(w.r.G.nodes) }

// Compute charges cycles of pure application computation.
func (w *Worker) Compute(c sim.Time) { w.proc.Advance(c) }

// charge accounts protocol work on the application CPU.
func (w *Worker) charge(c sim.Time) {
	w.proc.Advance(c)
	w.r.Stats.Overhead += c
}

// fold applies costs the protocol handlers computed on this worker's
// behalf (cache invalidations, notice processing) plus, when the
// operation actually waited on the device (waited > 0), the user-level
// receive cost. Manager-local operations answered synchronously never
// touch the board and pay no dequeue.
func (w *Worker) fold(waited sim.Time) {
	c := w.pendingCharge
	w.pendingCharge = 0
	if waited > 0 {
		c += w.r.board.RecvDequeueCost()
	}
	w.charge(c)
}

// block parks the worker until the protocol wakes it, folding charges
// on resume. Returns the blocked time (synchronization delay).
func (w *Worker) block(why waitKind) sim.Time {
	w.waiting = why
	d := w.proc.Block()
	w.waiting = waitNone
	w.fold(d)
	return d
}

// --- shared memory access ---

// ReadF64 reads the shared float64 at word index idx.
func (w *Worker) ReadF64(idx int) float64 {
	return math.Float64frombits(w.ReadU64(idx))
}

// WriteF64 writes the shared float64 at word index idx.
func (w *Worker) WriteF64(idx int, v float64) {
	w.WriteU64(idx, math.Float64bits(v))
}

// ReadU64 reads the shared word at idx, faulting the page in if needed
// and charging the cache-hierarchy cost of the access.
func (w *Worker) ReadU64(idx int) uint64 {
	r := w.r
	page := r.G.pageOf(idx)
	words := r.view[page]
	for words == nil {
		w.slowPath(page, false)
		words = r.view[page]
	}
	w.proc.Advance(w.mem.Read(r.vaddrOfWord(idx)))
	return words[r.G.offsetOf(idx)]
}

// WriteU64 writes the shared word at idx. The first write to a page in
// an interval twins it (multiple-writer support) and marks it dirty for
// the next release.
func (w *Worker) WriteU64(idx int, v uint64) {
	r := w.r
	page := r.G.pageOf(idx)
	words := r.view[page]
	for words == nil {
		w.slowPath(page, true)
		words = r.view[page]
	}
	if !r.pages[page].dirty {
		w.beginWrite(page)
	}
	w.proc.Advance(w.mem.Write(r.vaddrOfWord(idx)))
	words[r.G.offsetOf(idx)] = v
	r.board.NoteWrite(r.vaddrOfWord(idx))
}

// beginWrite marks page dirty and, for pages this node does not own,
// creates the twin used for diffing at the next release, reusing a
// spare one when release has returned any.
func (w *Worker) beginWrite(page int32) {
	r := w.r
	pg := &r.pages[page]
	pg.dirty = true
	r.dirtied = append(r.dirtied, page)
	if pg.owned && !r.cfg.UpdateProtocol {
		// Home writes need no twin under the invalidate protocol: the
		// home copy is authoritative and nothing is diffed. The update
		// protocol twins even home pages so the home's own writes can
		// be forwarded to the copyset.
		return
	}
	var tw []uint64
	if n := len(r.spareTwins); n > 0 {
		tw = r.spareTwins[n-1]
		r.spareTwins = r.spareTwins[:n-1]
	} else {
		tw = make([]uint64, r.G.pageWords)
	}
	copy(tw, pg.words)
	r.book(page).twin = tw
	// Twinning is a page copy on the host CPU.
	w.charge(sim.Time(r.G.pageWords) * r.cfg.DiffWordCycles)
}

// slowPath handles an access to a page that is not plainly valid:
// invalid pages fault and fetch; home-stale pages stall until the
// noticed in-flight diffs land.
func (w *Worker) slowPath(page int32, write bool) {
	if w.r.pages[page].state == pageHomeStale {
		w.stallHome(page)
		return
	}
	w.fault(page, write)
}

// stallHome blocks the home's own worker until every diff named by the
// write notices it has seen for this page has been applied to its
// authoritative copy. Touching the page earlier could fold a stale
// value into a read-modify-write and silently lose a remote update.
func (w *Worker) stallHome(page int32) {
	r := w.r
	pg := &r.pages[page]
	if pg.caughtUp() {
		r.setState(page, pageValid)
		pg.notices = pg.notices[:0]
		return
	}
	r.Stats.PageFaults++ // it is a fault: the access stalled
	r.book(page).homeStalled = true
	w.block(waitPage)
}

// fault fetches an invalid page from its probable owner (always the
// static home under central ownership), version-gated on the write
// notices this node has seen, preserving any local uncommitted writes
// across the refetch. write marks a write fault, which makes the
// arriving page Message Cache eligible (it is likely to migrate) — and,
// under distributed ownership, migrates the ownership itself when the
// owner's copy is clean.
func (w *Worker) fault(page int32, write bool) {
	r := w.r
	r.Stats.PageFaults++
	pg := &r.pages[page]
	if pg.owned {
		panic(fmt.Sprintf("dsm: node %d faulted on its own page %d", r.node, page))
	}
	// Preserve uncommitted local writes (concurrent write sharing): the
	// incoming base page must not clobber them. A twinned page keeps its
	// twin until release, so onPageReply knows the preserved writes by
	// it, even when none of them changed a word. A fault makes no book.
	if b := pg.book; b != nil && b.twin != nil {
		b.local = diffWords(pg.words, b.twin)
		write = true
	}
	need := slices.Clone(pg.notices)
	target := r.probOwnerOf(page)
	// An outstanding write fetch makes this node the probable future
	// owner: racing requests and diffs park here until the reply
	// resolves the ownership (see pendingOwn).
	pg.fetchingW = write
	r.trace.Addf(w.proc.Local(), r.node, "fault", "page %d write=%v need=%d", page, write, len(need))
	req := &pageReqMsg{page: page, from: r.node, write: write, need: need}
	m := &nic.Message{
		From: r.node, To: target, Op: OpPageReq,
		Size:    nic.HeaderBytes + 8 + 12*len(need),
		Payload: req,
	}
	w.charge(r.board.Send(w.proc, m))
	w.block(waitPage)
}

// diffWords returns the entries where a page's words cur differ from
// its twin, or nil when no word changed. It counts the changed words
// first so the result is allocated once, at its exact size.
func diffWords(cur, twin []uint64) []diffEntry {
	cur = cur[:len(twin)]
	n := 0
	for i, tv := range twin {
		if cur[i] != tv {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]diffEntry, 0, n)
	for i, tv := range twin {
		if cur[i] != tv {
			out = append(out, diffEntry{off: int32(i), val: cur[i]})
		}
	}
	return out
}

// dropTwin returns page book b's twin, if any, to the spare list.
func (r *Runtime) dropTwin(b *pageBook) {
	if b.twin != nil {
		r.spareTwins = append(r.spareTwins, b.twin)
		b.twin = nil
	}
}

// release is the release half of LRC: create the interval for the
// pages written since the last release, flush them (publishing the
// writes to memory and to the snooping Message Cache), and ship diffs
// of pages this node does not own to their probable owners.
func (w *Worker) release() {
	r := w.r
	if len(r.dirtied) == 0 {
		return
	}
	pages := slices.Clone(r.dirtied)
	slices.Sort(pages)
	r.dirtied = r.dirtied[:0]

	ps := r.perPeer()
	ps.vc[r.node]++
	idx := ps.vc[r.node]
	iv := &Interval{Node: r.node, Idx: idx, Pages: pages}
	ps.log[r.node] = append(ps.log[r.node], iv)

	for _, page := range pages {
		vaddr := r.vaddrOfPage(page)
		pg, b := &r.pages[page], r.book(page)
		if pg.owned {
			// Owner writes are authoritative; advance the version so gated
			// fetches see them. Flush only pages some other node actually
			// fetches — the rest have no impending transfer.
			if b.exported {
				w.charge(r.board.FlushBuffer(vaddr, r.cfg.PageBytes))
			}
			b.applied[r.node] = idx
			w.proc.Sync()
			if r.cfg.UpdateProtocol {
				// Forward the home's own writes to every copy holder,
				// which stalls on the matching write notice otherwise.
				if tw := b.twin; tw != nil {
					entries := diffWords(pg.words, tw)
					w.charge(sim.Time(r.G.pageWords) + sim.Time(len(entries))*r.cfg.DiffWordCycles)
					r.forwardUpdate(w.proc.Local(), &diffMsg{
						page: page, writer: r.node, idx: idx, entries: entries,
					})
					r.dropTwin(b)
				}
			}
			r.drainWaiting(w.proc.Local(), page)
			// Ownership may have arrived mid-interval, leaving the twin
			// of the pre-ownership writes behind; the owner copy is
			// authoritative, so the twin is dead.
			r.dropTwin(b)
			pg.dirty = false
			continue
		}
		w.charge(r.board.FlushBuffer(vaddr, r.cfg.PageBytes))
		tw := b.twin
		if tw == nil {
			panic(fmt.Sprintf("dsm: node %d dirty non-home page %d without twin", r.node, page))
		}
		entries := diffWords(pg.words, tw)
		// Diff creation scans the page and encodes the changed words.
		w.charge(sim.Time(r.G.pageWords) + sim.Time(len(entries))*r.cfg.DiffWordCycles)
		// Remember that any refetch must see our own diff applied at
		// the owner...
		pg.need(r.node, idx)
		// ...while this copy trivially contains its own writes, so the
		// local applied tracking (used by the update protocol's stall
		// gate) advances immediately, and the write-ordering guard
		// remembers how recent our writes are.
		b.applied[r.node] = idx
		pg.lastWrote = idx

		// Diffs go to the probable owner; under distributed ownership
		// past owners forward them down the chain.
		home := r.probOwnerOf(page)
		d := &diffMsg{page: page, writer: r.node, idx: idx, entries: entries}
		// A dense diff is run-length encoded in practice and never
		// exceeds the page itself.
		diffBytes := 12 * len(entries)
		if diffBytes > r.cfg.PageBytes {
			diffBytes = r.cfg.PageBytes
		}
		m := &nic.Message{
			From: r.node, To: home, Op: OpDiff,
			Size:    nic.HeaderBytes + 12 + diffBytes,
			VAddr:   vaddr, // diff data streams out of the (possibly cached) page buffer
			CacheTx: true,  // a page we keep diffing is worth binding
			NoFlush: true,  // flushed just above
			Payload: d,
		}
		r.trace.Addf(w.proc.Local(), r.node, "diff", "page %d -> home %d (%d words)", page, home, len(entries))
		w.charge(r.board.Send(w.proc, m))
		r.Stats.DiffsSent++
		r.Stats.DiffWords += uint64(len(entries))
		r.dropTwin(b)
		pg.dirty = false
	}
}

// --- synchronization ---

// Lock acquires the distributed lock id, applying the write notices
// that ride on the grant. Returns the cycles spent blocked.
func (w *Worker) Lock(id int) sim.Time {
	r := w.r
	r.Stats.LockOps++
	mgr := id % len(r.G.nodes)
	r.trace.Addf(w.proc.Local(), r.node, "lock", "acquire %d (manager %d)", id, mgr)
	req := &lockAcqMsg{lock: id, from: r.node, vc: append([]int32(nil), r.perPeer().vc...)}
	w.toManager(&nic.Message{
		From: r.node, To: mgr, Op: OpLockAcq,
		Size:    nic.HeaderBytes + 8 + 4*len(req.vc),
		Payload: req,
	})
	return w.block(waitLock)
}

// Unlock releases lock id: the LRC release (interval, flushes, diffs)
// followed by the manager handoff carrying the intervals the manager
// has not seen.
func (w *Worker) Unlock(id int) {
	r := w.r
	r.trace.Addf(w.proc.Local(), r.node, "unlock", "release %d", id)
	w.release()
	mgr := id % len(r.G.nodes)
	vc := r.perPeer().vc
	sinceVC := r.grantVC[id]
	if sinceVC == nil {
		sinceVC = make([]int32, len(vc))
	}
	bundle := r.newIntervalBundleSince(sinceVC)
	w.toManager(&nic.Message{
		From: r.node, To: mgr, Op: OpLockRel,
		Size:    nic.HeaderBytes + 8 + 4*len(vc) + noticeBytes(bundle),
		Payload: &lockRelMsg{lock: id, from: r.node, notices: bundle},
	})
}

// Barrier enters global barrier id and returns once every node has
// arrived and the write notices have been exchanged. Returns the
// cycles spent blocked. With Config.NICCollectives the barrier rides
// the collective engine; otherwise it goes through a manager node —
// node 0 under central ownership, rotating with the barrier id under
// distributed ownership so no single host absorbs every entry message
// (locks already hash their managers the same way).
func (w *Worker) Barrier(id int) sim.Time {
	r := w.r
	if r.cfg.NICCollectives {
		return w.barrierColl(id)
	}
	r.Stats.BarrierOps++
	r.trace.Addf(w.proc.Local(), r.node, "barrier", "enter %d", id)
	w.release()
	mgr := 0
	if r.distributed {
		mgr = id % len(r.G.nodes)
	}
	ps := r.perPeer()
	bundle := r.newIntervalBundleSince(ps.lastBarVC)
	e := &barEnterMsg{barrier: id, from: r.node, vc: append([]int32(nil), ps.vc...), notices: bundle}
	w.toManager(&nic.Message{
		From: r.node, To: mgr, Op: OpBarEnter,
		Size:    nic.HeaderBytes + 8 + 4*len(e.vc) + noticeBytes(bundle),
		Payload: e,
	})
	return w.block(waitBarrier)
}

// NextTask pops the next task from the shared bag (the bag-of-tasks
// paradigm Cholesky uses), or -1 when the bag is empty.
func (w *Worker) NextTask() int {
	r := w.r
	req := &taskReqMsg{from: r.node}
	w.toManager(&nic.Message{
		From: r.node, To: 0, Op: OpTaskReq, // node 0 manages the bag
		Size:    nic.HeaderBytes + 8,
		Payload: req,
	})
	w.block(waitTask)
	if w.taskResult >= 0 {
		r.Stats.TasksTaken++
	}
	return w.taskResult
}

// PushTask asynchronously adds newly enabled tasks to the bag and
// reports done completed tasks (either may be empty/zero).
func (w *Worker) PushTask(done int, tasks ...int) {
	r := w.r
	w.toManager(&nic.Message{
		From: r.node, To: 0, Op: OpTaskPush, // node 0 manages the bag
		Size:    nic.HeaderBytes + 8 + 8*len(tasks),
		Payload: &taskPushMsg{tasks: tasks, done: done},
	})
}

// toManager delivers a synchronization request to its manager, m.To:
// a direct handler call after LocalOpCycles when this node manages it,
// the board otherwise.
func (w *Worker) toManager(m *nic.Message) {
	r := w.r
	if m.To == r.node {
		w.charge(r.cfg.LocalOpCycles)
		w.proc.Sync()
		r.dispatchLocal(w.proc.Local(), m)
		return
	}
	w.charge(r.board.Send(w.proc, m))
}

// TaskDone reports one completed task.
func (w *Worker) TaskDone() { w.PushTask(1) }

// f64bits and f64from centralize the float64 <-> word conversions.
func f64bits(v float64) uint64 { return math.Float64bits(v) }

func f64from(b uint64) float64 { return math.Float64frombits(b) }
