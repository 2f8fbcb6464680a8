// Package dsm implements the distributed shared memory system the CNI
// paper's evaluation runs: a lazy invalidate release consistency
// protocol (Keleher et al. [7], Gharachorloo et al. [6]) with vector
// timestamps, intervals, write notices, and multiple-writer twins and
// diffs, plus the synchronization machinery the three benchmark
// applications need — distributed locks, barriers, and a bag-of-tasks.
//
// The variant implemented is home-based LRC: every shared page has a
// static home node whose copy is authoritative; a releaser sends diffs
// of the pages it wrote to their homes, and a node that invalidated a
// page on an acquire refetches the whole page from the home. Fetches
// are version-gated — a page request names the (writer, interval)
// pairs the requester must observe and the home holds the reply until
// the corresponding diffs have been applied — so the protocol is
// correct regardless of message timing. DESIGN.md discusses why this
// variant preserves the traffic patterns the paper's figures depend on
// (repeated page sends from homes exercise transmit caching; diff
// sends out of received pages exercise receive caching).
//
// On the CNI board the protocol handlers are registered as Application
// Interrupt Handlers and run on the NIC's receive processor; on the
// standard interface the same handlers run on the host CPU behind an
// interrupt, which is exactly the overhead gap Tables 2-4 of the paper
// measure.
//
// Config.DSMOwnership selects between two manager organizations. The
// default ("central") is the home-based protocol above: every page's
// manager is its static home for the whole run. "distributed" is the
// Li/Hudak dynamic distributed manager: ownership migrates to
// write-faulting nodes, every node keeps a per-page probable-owner
// pointer, and requests or diffs that land on a past owner are
// forwarded one hop down the chain (with path compression on write
// requests). Barrier managers rotate with the barrier id and lock
// managers hash over the nodes, so no single host absorbs the
// synchronization metadata either. The forwarding handlers are the
// same AIHs: on the CNI a forward is issued by the board's receive
// processor with the owner table pinned in board memory
// (Board.HandlersOnBoard), while OSIRIS and the standard
// interface pay the host path on every hop.
package dsm

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"cni/internal/collective"
	"cni/internal/config"
	"cni/internal/nic"
	"cni/internal/sim"
	"cni/internal/trace"
)

// SharedBase is the virtual address where the shared region is mapped
// on every node (identical everywhere, as the paper's fixed allocation
// of processor address space to DSM prescribes).
const SharedBase uint64 = 1 << 30

// MailboxBase is the per-node buffer where control payloads (write
// notice bundles) are DMAed.
const MailboxBase uint64 = 1 << 29

// Protocol operations (PATHFINDER-visible message kinds).
const (
	OpDiff uint32 = 10 + iota
	OpPageReq
	OpPageReply
	OpLockAcq
	OpLockGrant
	OpLockRel
	OpBarEnter
	OpBarRelease
	OpTaskReq
	OpTaskReply
	OpTaskPush
	OpUpdate
)

// Interval is one release interval: the pages Node wrote between its
// (Idx-1)th and Idx-th releases.
type Interval struct {
	Node  int
	Idx   int32
	Pages []int32
}

// bytes is the modeled wire size of an interval record.
func (iv *Interval) bytes() int { return 12 + 4*len(iv.Pages) }

// noticeBytes is the modeled wire size of a notice bundle.
func noticeBytes(bundle [][]*Interval) int {
	n := 0
	for _, run := range bundle {
		for _, iv := range run {
			n += iv.bytes()
		}
	}
	return n
}

// intervalCount reports the number of intervals in a bundle.
func intervalCount(bundle [][]*Interval) int {
	n := 0
	for _, run := range bundle {
		n += len(run)
	}
	return n
}

// notice is one pending write notice of a page: writer's interval idx
// must be applied before the node's copy is current.
type notice struct{ writer, idx int32 }

// --- wire payloads (carried by reference through the simulated fabric) ---

// diffEntry is one changed word of a page: its offset within the page
// and its new value.
type diffEntry struct {
	off int32
	val uint64
}

type diffMsg struct {
	page    int32
	writer  int
	idx     int32 // writer's interval index
	entries []diffEntry
	// hops counts probable-owner chain forwards (distributed ownership
	// only): a diff that reaches a past owner chases the current one.
	hops int
}

type pageReqMsg struct {
	page int32
	from int
	// write marks a write fault: the page will be modified and so is
	// "likely to migrate" — the home sets the header cache bit on the
	// reply and the requester's board binds it (receive caching).
	// Read-only fetches are not bound, keeping the Message Cache free
	// for pages that will actually be retransmitted.
	write bool
	// need lists the (writer, interval) pairs the home must have
	// applied before replying: a copy of the requester's notice list,
	// sorted by writer.
	need []notice
	// hops counts probable-owner chain forwards (distributed ownership
	// only); the requester folds it into its chain histogram.
	hops int
}

type pageReplyMsg struct {
	page int32
	// from is the node that served the request — the static home under
	// central ownership, the current owner under distributed ownership.
	// The requester installs the page from this node's copy and updates
	// its probable-owner pointer to it.
	from int
	// own marks an ownership grant (distributed, write faults on a
	// clean owner copy): the requester becomes the page's owner and
	// manager.
	own bool
	// applied snapshots the home's per-writer applied vector at reply
	// time, seeding the member's own tracking under the update
	// protocol (and the new owner's under distributed ownership). It
	// is nil on every other reply, which never reads it.
	applied []int32
	// req is the request this reply answers; the requester clears only
	// the requirements the reply was gated on, because write notices
	// that arrived while the fetch was in flight are NOT covered by it.
	req *pageReqMsg
}

type lockAcqMsg struct {
	lock int
	from int
	vc   []int32
}

type lockGrantMsg struct {
	lock      int
	notices   [][]*Interval
	managerVC []int32
}

type lockRelMsg struct {
	lock    int
	from    int
	notices [][]*Interval // releaser intervals the manager hasn't seen
}

type barEnterMsg struct {
	barrier int
	from    int
	vc      []int32
	notices [][]*Interval
}

type barReleaseMsg struct {
	notices   [][]*Interval
	managerVC []int32
}

type taskReqMsg struct{ from int }

type taskReplyMsg struct {
	task int // -1 when all tasks are done
}

// taskPushMsg feeds the bag: newly enabled tasks and/or completions
// (the right-looking Cholesky fan-out pushes a column once its last
// update lands, and reports each finished column).
type taskPushMsg struct {
	tasks []int
	done  int
}

// updateMsg is one forwarded diff of the eager-update protocol.
// seenOfMember is the home's applied index FOR THE RECEIVER at forward
// time: if the receiver has released a newer interval for this page,
// the push's values may predate the receiver's own writes and must not
// be applied (the receiver falls back to an invalidate+fault).
type updateMsg struct {
	diff         *diffMsg
	seenOfMember int32
}

// ChainHist is a histogram of probable-owner chain lengths observed by
// completed page fetches: bucket i counts fetches forwarded i times,
// with the last bucket absorbing everything longer. A fixed-size array
// keeps Stats comparable (the determinism tests compare with ==).
type ChainHist [8]uint64

// observe records one completed fetch that took hops forwards.
func (h *ChainHist) observe(hops int) {
	if hops >= len(h) {
		hops = len(h) - 1
	}
	h[hops]++
}

// Total reports the number of observed fetches.
func (h ChainHist) Total() uint64 {
	var t uint64
	for _, v := range h {
		t += v
	}
	return t
}

// Mean reports the mean forwarding-chain length over the observed
// fetches (0 when none was observed, as under central ownership).
func (h ChainHist) Mean() float64 {
	var total, weighted uint64
	for i, v := range h {
		total += v
		weighted += uint64(i) * v
	}
	if total == 0 {
		return 0
	}
	return float64(weighted) / float64(total)
}

// Stats aggregates one node's protocol activity.
type Stats struct {
	PageFaults   uint64 // accesses that stalled or fetched
	PageFetches  uint64 // page requests this node served as home/owner
	DiffsSent    uint64
	DiffWords    uint64
	DiffsApplied uint64
	Invalidates  uint64
	LockOps      uint64
	BarrierOps   uint64
	TasksTaken   uint64
	// OwnerMsgs counts protocol messages this node handled in a
	// manager/owner role: page requests and diffs at the page's
	// home/owner, lock traffic at the lock's manager, barrier entries
	// at the barrier's manager, task traffic at the bag server. The
	// per-node maximum is the manager-hotspot metric FD1 plots.
	OwnerMsgs uint64
	// Forwards counts probable-owner chain forwards this node issued
	// (distributed ownership only).
	Forwards uint64
	// Migrations counts ownerships this node acquired on write faults
	// (distributed ownership only).
	Migrations uint64
	// Chain is the chain-length histogram of this node's completed
	// fetches (distributed ownership only; central fetches take 0 hops).
	Chain    ChainHist
	Overhead sim.Time // protocol cycles charged to the app CPU
}

// pageState is a node's access state for one shared page.
type pageState uint8

const (
	// pageInvalid: the local copy is stale; an access faults and
	// fetches from the probable owner.
	pageInvalid pageState = iota
	// pageValid: the local copy is current as of the node's last
	// acquire; accesses proceed at memory speed.
	pageValid
	// pageHomeStale: this node owns the page (or, under the update
	// protocol, holds a copy) and has seen write notices for diffs that
	// have not arrived yet. The copy stays mapped (owners are never
	// invalidated) but the next access must stall until the noticed
	// diffs are applied — otherwise an owner read-modify-write could
	// overwrite an in-flight remote update.
	pageHomeStale
)

// page is one node's record for one shared page; Runtime.pages holds
// one per page, indexed by page id. It is the per-page state machine of
// the Li/Hudak manager in IVY: access state, ownership, the
// probable-owner pointer, the pending write notices and the node's copy
// of the page's words here, the rest in a pageBook (Runtime.book) made
// only for pages the node owns, holds, writes or parks traffic for, so
// the table stays small over pages a node is merely told about. Central
// ownership is the case in which ownership never migrates: every page
// stays owned by its static home, where every node's probable-owner
// pointer starts and stays.
type page struct {
	// words is this node's copy of the page, nil until the page
	// materializes: at NewRuntime for the pages the node owns, at the
	// first fetch (copyPageFrom) for any other. Once made it is kept,
	// and an invalidated copy is overwritten by its next fetch.
	words []uint64
	// state is the access state; setState is its only writer.
	state pageState
	// dirty marks a page written since the last release; it stays set
	// until release reaches the page, so handlers running while release
	// yields still see the unreleased pages as dirty.
	dirty bool
	// owned marks that this node manages the page: its static home from
	// the start, and under distributed ownership whichever node the
	// ownership has migrated to.
	owned bool
	// fetchingW marks an outstanding write fetch (see pendingOwn).
	fetchingW bool
	// lastWrote is this node's interval index of the last release that
	// diffed the page (the update protocol's write-ordering guard).
	lastWrote int32
	// probOwner is this node's best guess at the page's owner: the
	// static home at first, itself while it owns the page.
	probOwner int
	// notices lists the write notices still to be observed: for each
	// writer with one pending, the highest interval whose diff this
	// node must see applied before its copy is current. It is sorted
	// by writer, at most one entry a writer, every index at least 1.
	notices []notice
	book    *pageBook
}

// need records that writer w's interval idx must be applied before the
// page is current. Bundles arrive in writer order, so the writer
// usually sorts last and the notice appends; otherwise a binary search
// finds its place.
func (pg *page) need(w int, idx int32) {
	ns, wr := pg.notices, int32(w)
	if n := len(ns); n == 0 || ns[n-1].writer < wr {
		pg.notices = append(ns, notice{wr, idx})
		return
	}
	i, found := slices.BinarySearchFunc(ns, wr, func(nt notice, w int32) int { return cmp.Compare(nt.writer, w) })
	switch {
	case !found:
		pg.notices = slices.Insert(ns, i, notice{wr, idx})
	case idx > ns[i].idx:
		ns[i].idx = idx
	}
}

// caughtUp reports whether every noticed interval has been applied to
// this copy. A page without a book has applied nothing.
func (pg *page) caughtUp() bool {
	if len(pg.notices) == 0 {
		return true
	}
	b := pg.book
	if b == nil {
		return false
	}
	for _, nt := range pg.notices {
		if b.applied[nt.writer] < nt.idx {
			return false
		}
	}
	return true
}

// dropCovered clears the notices a fetch was gated on: each whose
// writer's interval the reply covers. Notices that raced the fetch
// stay. met is sorted by writer, as the notice list is.
func (pg *page) dropCovered(met []notice) {
	keep, j := pg.notices[:0], 0
	for _, nt := range pg.notices {
		for j < len(met) && met[j].writer < nt.writer {
			j++
		}
		if j < len(met) && met[j].writer == nt.writer && nt.idx <= met[j].idx {
			continue
		}
		keep = append(keep, nt)
	}
	pg.notices = keep
}

// pageBook is the part of a page record made only where the node owns,
// holds, writes or parks traffic for the page: the interval's twin and
// preserved writes, and the manager bookkeeping.
type pageBook struct {
	// twin is the page as of its first write in the interval, the base
	// the next diff is taken against; nil when the page is not twinned.
	twin []uint64
	// local holds the uncommitted writes a fault preserves across the
	// refetch; onPageReply reapplies them over the fetched base.
	local []diffEntry
	// pendingOwn parks requests and diffs that arrive while this node
	// has a write fetch outstanding for the page: the requester is the
	// probable future owner, so racing traffic funnels here instead of
	// chasing a moving target (the rule that makes Li/Hudak chains
	// terminate).
	pendingOwn []*nic.Message
	applied    []int32   // per-writer highest applied interval index
	waiting    []waitReq // version-gated requests parked here
	// homeStalled marks that this node's worker is blocked waiting
	// for noticed diffs on this page (at the owner under either
	// protocol; at any copy holder under the update protocol).
	homeStalled bool
	// exported marks that some other node has fetched this page: from
	// then on the owner flushes it at every release (the "impending
	// message transfer" discipline); never-exported pages skip the
	// flush and pay it once on their first fetch.
	exported bool
	// copyset lists the nodes holding a copy of this page; under the
	// update protocol the home forwards every diff to them. Maintained
	// only at the home.
	copyset map[int]bool
}

type waitReq struct {
	req *pageReqMsg
	at  sim.Time
}

// lockState is the manager-side state of one lock.
type lockState struct {
	held   bool
	holder int
	queue  []*lockAcqMsg
}

// barrierState is the manager-side state of one barrier.
type barrierState struct {
	arrived int
	enters  []*barEnterMsg
}

// Runtime is one node's DSM engine. All Runtimes of a cluster share
// the Globals. Everything the node knows about a shared page, from its
// access state to its ownership, is in the page's record in pages.
type Runtime struct {
	G    *Globals
	node int

	k     *sim.Kernel
	cfg   *config.Config
	board *nic.Board
	// ops is the protocol's handler table, indexed by op - OpDiff:
	// registered on the board, and called directly for messages this
	// node addresses to itself (dispatchLocal).
	ops [OpUpdate - OpDiff + 1]nic.Handler

	pages []page // the page table: every per-page state, by page id
	// view[p] is page p's words while the page is valid and nil
	// otherwise, so ReadU64 and WriteU64 test validity and find the
	// word with one load. setState is its only writer, and the Worker
	// holds the same slice.
	view [][]uint64
	// dirtied lists the pages written since the last release, in the
	// order of their first write; release sorts them.
	dirtied []int32
	// nnodes is the cluster's node count, the length of every per-peer
	// vector. ps holds those vectors; reach it through perPeer, which
	// makes it on first use.
	nnodes  int
	ps      *peerState
	locks   map[int]*lockState
	bars    map[int]*barrierState
	grantVC map[int][]int32 // per lock: manager VC seen at last grant

	// spareTwins holds page-sized twins that release has dropped, for
	// beginWrite to reuse; it never holds more twins than were once
	// live at the same time.
	spareTwins [][]uint64

	// distributed selects the Li/Hudak dynamic manager: ownership
	// migrates on clean write faults and barrier managers rotate.
	distributed bool
	// pendingIv parks intervals that arrived ahead of a gap in the
	// log. Only the rotating barrier manager can see such a gap: an
	// enter bundle is computed against the previous manager's release
	// clock, and a fast participant's enter can outrun the new
	// manager's own release from that barrier. The missing prefix is
	// that release, already in flight, so the parked run splices the
	// moment it lands — provably before this manager redistributes.
	pendingIv map[int]map[int32]*Interval

	worker *Worker
	trace  *trace.Log // nil when tracing is off

	// coll, when set (and Config.NICCollectives on), carries barriers
	// over the collective engine instead of the centralized manager:
	// write-notice bundles ride the schedule as the engine's opaque
	// payload and are merged hop by hop — in board memory on the CNI.
	coll *collective.Node

	Stats Stats
}

// peerState is a node's per-peer consistency state: every vector is
// indexed by node, so a cluster of n nodes holds n² entries of it.
// Runtime.perPeer makes it at the node's first release, lock, barrier
// or notice bundle, so a node that never synchronizes through the DSM
// (a message-passing or serving run) holds none of it.
type peerState struct {
	vc []int32
	// log[n] is every interval of node n this node knows, contiguous by
	// index (log[n][k].Idx == k+1). Notice bundles are capped subslices
	// of it, so it is append-only while they are in flight: a
	// reclamation must reslice or reallocate, never compact in place.
	log       [][]*Interval
	lastBarVC []int32 // manager VC broadcast at the last barrier release
}

// perPeer returns the node's per-peer consistency state, making it on
// first use. Every clock a message carries, and every message size
// that counts a clock's entries, comes from here, so both are the
// node count whether or not the node synchronized before.
func (r *Runtime) perPeer() *peerState {
	if r.ps == nil {
		r.ps = &peerState{
			vc:        make([]int32, r.nnodes),
			log:       make([][]*Interval, r.nnodes),
			lastBarVC: make([]int32, r.nnodes),
		}
	}
	return r.ps
}

// SetTrace attaches an event log (nil turns tracing off).
func (r *Runtime) SetTrace(l *trace.Log) { r.trace = l }

// Globals is the cluster-wide configuration of the shared region.
type Globals struct {
	cfg          *config.Config
	nodes        []*Runtime
	pageWords    int
	pageShift    uint // log2(pageWords): a word's page is idx >> pageShift
	words        int  // allocated shared words
	homeOf       func(page int32) int
	homeOverride func(page int32, n int) int

	// Bag of tasks, served by node 0's protocol handler. taskTotal is
	// the number of TaskDone completions after which NextTask returns
	// -1 to everyone; 0 means "the initial bag is everything" and the
	// bag simply drains.
	taskBag    []int
	taskNext   int
	taskTotal  int
	taskDone   int
	taskParked []*taskReqMsg

	// onBarrier is a test hook, nil outside tests, that runs at the
	// first release of every barrier (leaveBarrier); barriersReleased
	// counts the barriers released while it is set.
	onBarrier        func()
	barriersReleased uint64
}

// NewGlobals prepares a cluster-wide DSM of n nodes. Homes are
// distributed by blocks once the region size is known (see Freeze).
// cfg must have passed config.Validate, which makes the words per page
// a power of two.
func NewGlobals(cfg *config.Config) *Globals {
	pw := cfg.PageBytes / cfg.WordBytes
	return &Globals{cfg: cfg, pageWords: pw, pageShift: uint(bits.TrailingZeros(uint(pw)))}
}

// Alloc reserves words shared words and returns the base word index.
// Call before Freeze, identically on every run.
func (g *Globals) Alloc(words int) int {
	base := g.words
	g.words += words
	// Pad to a page boundary so unrelated arrays never share a page
	// (the apps control false sharing through page size instead).
	if rem := g.words % g.pageWords; rem != 0 {
		g.words += g.pageWords - rem
	}
	return base
}

// PageWords reports the shared-page size in words.
func (g *Globals) PageWords() int { return g.pageWords }

// Pages reports the number of shared pages after allocation.
func (g *Globals) Pages() int {
	return (g.words + g.pageWords - 1) / g.pageWords
}

// SetTasks loads the initial bag of tasks (served by node 0). With
// total == 0 the bag is static and NextTask returns -1 once it drains;
// with total > 0 the bag is dynamic (workers may PushTask) and NextTask
// returns -1 only after total TaskDone completions.
func (g *Globals) SetTasks(tasks []int, total int) {
	g.taskBag = append([]int(nil), tasks...)
	g.taskNext = 0
	g.taskTotal = total
	g.taskDone = 0
	g.taskParked = nil
}

// SetHomeOf overrides the home distribution (applications call this in
// their Setup to align page homes with their data partitioning; the
// function must map every page to [0, n)). Takes effect at Freeze.
func (g *Globals) SetHomeOf(fn func(page int32, n int) int) { g.homeOverride = fn }

// Freeze fixes the home distribution: by default pages are distributed
// in contiguous blocks across n nodes, which aligns homes with the
// block-partitioned data of the benchmark applications; a SetHomeOf
// override wins.
func (g *Globals) Freeze(n int) {
	if g.homeOverride != nil {
		fn := g.homeOverride
		g.homeOf = func(page int32) int {
			h := fn(page, n)
			if h < 0 || h >= n {
				panic(fmt.Sprintf("dsm: home override mapped page %d to %d of %d nodes", page, h, n))
			}
			return h
		}
		return
	}
	pages := g.Pages()
	if pages == 0 {
		pages = 1
	}
	per := (pages + n - 1) / n
	g.homeOf = func(page int32) int {
		h := int(page) / per
		if h >= n {
			h = n - 1
		}
		return h
	}
}

// pageOf returns the page holding word idx.
func (g *Globals) pageOf(idx int) int32 { return int32(idx >> g.pageShift) }

// offsetOf returns word idx's offset within its page.
func (g *Globals) offsetOf(idx int) int { return idx & (g.pageWords - 1) }

// OwnerOfWord reports the node holding the authoritative copy of word
// idx: OwnerOf its page.
func (g *Globals) OwnerOfWord(idx int) int { return g.OwnerOf(g.pageOf(idx)) }

// OwnerOf reports the node holding the page's authoritative copy: its
// static home before a run, and after a run whichever node the
// ownership reached. Like a request, it starts at the page's static
// home and follows the probable-owner pointers to the node that owns
// the page.
func (g *Globals) OwnerOf(page int32) int {
	n := g.homeOf(page)
	for hops := 0; !g.nodes[n].pages[page].owned; hops++ {
		if hops == len(g.nodes) {
			panic(fmt.Sprintf("dsm: page %d probable-owner chain from its home reaches no owner", page))
		}
		n = g.nodes[n].pages[page].probOwner
	}
	return n
}

// TaskDebug summarizes the bag-of-tasks state for deadlock forensics.
func (g *Globals) TaskDebug() string {
	return fmt.Sprintf("bag=%d/%d done=%d/%d parked=%d",
		g.taskNext, len(g.taskBag), g.taskDone, g.taskTotal, len(g.taskParked))
}

// PendingHomeRequests reports, per runtime, how many version-gated
// page requests are parked at this node's homes (deadlock forensics).
func (r *Runtime) PendingHomeRequests() (n int, sample string) {
	for p := range r.pages {
		b := r.pages[p].book
		if b == nil {
			continue
		}
		if len(b.waiting) > 0 {
			n += len(b.waiting)
			if sample == "" {
				req := b.waiting[0].req
				sample = fmt.Sprintf("page %d from node %d needs %v applied=%v",
					p, req.from, req.need, b.applied)
			}
		}
		if parked := b.pendingOwn; len(parked) > 0 {
			n += len(parked)
			if sample == "" {
				sample = fmt.Sprintf("page %d: %d message(s) parked awaiting ownership", p, len(parked))
			}
		}
	}
	return n, sample
}

// NewRuntime builds the DSM engine for one node and registers its
// protocol handlers on the board. Call after Globals.Freeze. Only the
// pages the node owns get words here, carved from one block; every
// other page materializes at its first fetch.
func NewRuntime(g *Globals, k *sim.Kernel, node, nnodes int, board *nic.Board) *Runtime {
	npages := g.Pages() + 1
	r := &Runtime{
		G:           g,
		node:        node,
		k:           k,
		cfg:         g.cfg,
		board:       board,
		pages:       make([]page, npages),
		view:        make([][]uint64, npages),
		nnodes:      nnodes,
		locks:       make(map[int]*lockState),
		bars:        make(map[int]*barrierState),
		grantVC:     make(map[int][]int32),
		distributed: g.cfg.DSMOwnershipOrDefault() == config.DSMDistributed,
	}
	// Every page starts owned by its static home, and every node's
	// probable-owner pointer starts there.
	owned := 0
	for p := range r.pages {
		pg := &r.pages[p]
		pg.probOwner = g.homeOf(int32(p))
		if pg.probOwner == node {
			pg.owned = true
			owned++
		}
	}
	block := make([]uint64, owned*g.pageWords)
	for p := range r.pages {
		if pg := &r.pages[p]; pg.owned {
			pg.words, block = block[:g.pageWords:g.pageWords], block[g.pageWords:]
			r.setState(int32(p), pageValid)
		}
	}
	g.nodes = append(g.nodes, r)

	r.ops = [...]nic.Handler{
		r.onDiff, r.onPageReq, r.onPageReply, r.onLockAcq, r.onLockGrant, r.onLockRel,
		r.onBarEnter, r.onBarRelease, r.onTaskReq, r.onTaskReply, r.onTaskPush, r.onUpdate,
	}
	onNIC := board.HandlersOnBoard()
	for i, h := range r.ops {
		board.Register(OpDiff+uint32(i), onNIC, h)
	}
	board.MapPages(SharedBase, g.Pages()*g.cfg.PageBytes)
	return r
}

// Node reports this runtime's node id.
func (r *Runtime) Node() int { return r.node }

// word returns this node's copy of shared word idx, whose page must be
// materialized here (owned or fetched).
func (r *Runtime) word(idx int) *uint64 {
	return &r.pages[r.G.pageOf(idx)].words[r.G.offsetOf(idx)]
}

// Poke writes a shared word directly into this node's copy, outside
// simulated time; used on the word's owner (Globals.OwnerOfWord) to
// preload initial data.
func (r *Runtime) Poke(idx int, v uint64) { *r.word(idx) = v }

// PokeF64 is Poke for float64 values.
func (r *Runtime) PokeF64(idx int, v float64) { *r.word(idx) = f64bits(v) }

// Peek reads a shared word directly from this node's copy, outside
// simulated time; meaningful on the word's owner after the
// application's final barrier.
func (r *Runtime) Peek(idx int) uint64 { return *r.word(idx) }

// PeekF64 is Peek for float64 values.
func (r *Runtime) PeekF64(idx int) float64 { return f64from(*r.word(idx)) }

// vaddrOfPage returns the host virtual address of a shared page.
func (r *Runtime) vaddrOfPage(page int32) uint64 {
	return SharedBase + uint64(page)*uint64(r.cfg.PageBytes)
}

// setState moves a page to access state s and keeps its view in step:
// the page's words while it is valid, nil otherwise. Every state
// transition goes through here.
func (r *Runtime) setState(page int32, s pageState) {
	pg := &r.pages[page]
	pg.state = s
	if s == pageValid {
		r.view[page] = pg.words
	} else {
		r.view[page] = nil
	}
}

// probOwnerOf is this node's best guess at the page's current owner:
// where its requests and diffs for the page go.
func (r *Runtime) probOwnerOf(page int32) int {
	pg := &r.pages[page]
	if pg.probOwner == r.node && !pg.owned {
		panic(fmt.Sprintf("dsm: node %d probable-owner pointer for page %d is itself but it is not the owner",
			r.node, page))
	}
	return pg.probOwner
}

// peer returns the runtime of another node (the simulator's stand-in
// for "the bytes that would be on the wire").
func (r *Runtime) peer(n int) *Runtime { return r.G.nodes[n] }

// copyPageFrom copies the serving node's current words for page into
// this node's copy, materializing it on the page's first fetch (the
// serving node is the static home under central ownership, the current
// owner under distributed). Run-ahead caveat documented in DESIGN.md:
// contents may be fresher than the request timestamp, which release
// consistency tolerates for data-race-free programs.
func (r *Runtime) copyPageFrom(page int32, from int) {
	pg := &r.pages[page]
	if pg.words == nil {
		pg.words = make([]uint64, r.G.pageWords)
	}
	copy(pg.words, r.peer(from).pages[page].words)
}

// newIntervalBundleSince returns this node's known intervals newer than
// the given vector clock as a bundle: per writer, in writer order, the
// suffix of its log the clock does not cover. Because log[n] is
// contiguous (log[n][k].Idx == k+1), each suffix is a capped subslice
// log[n][vc[n]:len:len] that shares the log and copies no interval;
// the cap makes an append to a run reallocate instead of writing into
// the log. Bundles are computed on every grant, release and barrier;
// the runs are counted first so the bundle is allocated once.
func (r *Runtime) newIntervalBundleSince(vc []int32) [][]*Interval {
	log := r.perPeer().log
	runs := 0
	for n, l := range log {
		if int(vc[n]) < len(l) {
			runs++
		}
	}
	if runs == 0 {
		return nil
	}
	out := make([][]*Interval, 0, runs)
	for n, l := range log {
		if start := int(vc[n]); start < len(l) {
			out = append(out, l[start:len(l):len(l)])
		}
	}
	return out
}

// absorbIntervals merges a foreign bundle into the log and vector
// clock and returns what was actually new, as a bundle: for each writer
// whose log it extended, the capped run log[w][before:] that it added,
// parked splices included. Under central ownership every bundle splices
// contiguously by construction (the fixed managers' clocks only grow),
// so a gap is a protocol bug and panics. Under distributed ownership a
// rotating barrier manager can legitimately receive a bundle ahead of
// its own release from the previous barrier; the ahead-of-gap suffix is
// parked and spliced when the release lands. Applying those write
// notices late is LRC-sound: the manager only needs them at its next
// acquire, and its own release — which closes the gap — precedes its
// own barrier enter.
func (r *Runtime) absorbIntervals(bundle [][]*Interval) [][]*Interval {
	ps := r.perPeer()
	var fresh [][]*Interval
	for i, run := range bundle {
		w := run[0].Node
		before := len(ps.log[w])
		for _, iv := range run {
			if iv.Idx <= ps.vc[w] {
				continue
			}
			if want := int32(len(ps.log[w])) + 1; iv.Idx != want {
				if !r.distributed {
					panic(fmt.Sprintf("dsm: node %d got interval (%d,%d), want idx %d — bundle not contiguous",
						r.node, w, iv.Idx, want))
				}
				r.parkInterval(iv)
				continue
			}
			ps.log[w] = append(ps.log[w], iv)
			ps.vc[w] = iv.Idx
			r.spliceParked(w)
		}
		if l := ps.log[w]; len(l) > before {
			if fresh == nil {
				fresh = make([][]*Interval, 0, len(bundle)-i)
			}
			fresh = append(fresh, l[before:len(l):len(l)])
		}
	}
	return fresh
}

// parkInterval holds an interval whose log prefix has not arrived yet.
func (r *Runtime) parkInterval(iv *Interval) {
	if r.pendingIv == nil {
		r.pendingIv = make(map[int]map[int32]*Interval)
	}
	pend := r.pendingIv[iv.Node]
	if pend == nil {
		pend = make(map[int32]*Interval)
		r.pendingIv[iv.Node] = pend
	}
	pend[iv.Idx] = iv
	// A gap that never closes would wedge silently; the only legal gap
	// is one in-flight barrier release deep, so a runaway park means a
	// protocol bug.
	if len(pend) > 4*len(r.G.nodes)+64 {
		panic(fmt.Sprintf("dsm: node %d parked %d intervals from node %d — gap never closed",
			r.node, len(pend), iv.Node))
	}
}

// spliceParked appends to the log any parked intervals of node n that
// are now contiguous with it, in index order.
func (r *Runtime) spliceParked(n int) {
	pend := r.pendingIv[n]
	if len(pend) == 0 {
		return
	}
	ps := r.perPeer()
	for {
		next := ps.vc[n] + 1
		iv, ok := pend[next]
		if !ok {
			break
		}
		delete(pend, next)
		ps.log[n] = append(ps.log[n], iv)
		ps.vc[n] = next
	}
	if len(pend) == 0 {
		delete(r.pendingIv, n)
	}
}

// applyWriteNotices processes the pages named by a fresh bundle, in
// writer then index order. A node ignores notices about its own writes.
// Each notice joins the page record's list and makes no book.
// Non-home pages are invalidated; for its own home pages the node
// records that diffs are in flight (pageHomeStale) so its next access
// waits for them — the home copy stays mapped but must not be
// read-modify-written early.
func (r *Runtime) applyWriteNotices(fresh [][]*Interval) {
	for _, run := range fresh {
		if run[0].Node == r.node {
			continue
		}
		for _, iv := range run {
			for _, p := range iv.Pages {
				pg := &r.pages[p]
				pg.need(iv.Node, iv.Idx)
				if pg.owned || (r.cfg.UpdateProtocol && pg.state != pageInvalid) {
					// The copy stays mapped: the owner always, and any copy
					// holder under the update protocol (the diff is on its
					// way). Accesses stall until the diffs land.
					if !pg.caughtUp() {
						r.setState(p, pageHomeStale)
					}
					continue
				}
				if pg.state == pageValid {
					r.setState(p, pageInvalid)
					r.Stats.Invalidates++
				}
			}
		}
	}
}

// book returns the bookkeeping part of a page's record, making it on
// first use. Call it only for a page this node owns, holds, writes or
// parks traffic for.
func (r *Runtime) book(page int32) *pageBook {
	pg := &r.pages[page]
	if pg.book == nil {
		pg.book = &pageBook{applied: make([]int32, r.nnodes)}
	}
	return pg.book
}

// satisfied reports whether the owner has applied every diff the
// request requires.
func (b *pageBook) satisfied(req *pageReqMsg) bool {
	for _, nt := range req.need {
		if b.applied[nt.writer] < nt.idx {
			return false
		}
	}
	return true
}
