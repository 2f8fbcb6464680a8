package dsm

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"
)

// OnBarrier makes fn run at the first release of every barrier of g's
// run, when every worker has arrived and none has resumed.
func OnBarrier(g *Globals, fn func()) { g.onBarrier = fn }

// CheckOwnership verifies the ownership invariants of a finished run,
// or of one at a barrier release:
// every page has exactly one owner, the owner's probable-owner pointer
// names itself, and from every node the probable-owner pointers reach
// the owner within one hop per node (so no chain cycles or dead-ends).
func CheckOwnership(g *Globals) error {
	for p := range g.nodes[0].pages {
		owner := -1
		for n, r := range g.nodes {
			if !r.pages[p].owned {
				continue
			}
			if owner >= 0 {
				return fmt.Errorf("page %d owned by nodes %d and %d", p, owner, n)
			}
			owner = n
		}
		if owner < 0 {
			return fmt.Errorf("page %d has no owner", p)
		}
		if o := g.nodes[owner].pages[p].probOwner; o != owner {
			return fmt.Errorf("page %d: owner %d points at node %d", p, owner, o)
		}
		for n := range g.nodes {
			at := n
			for hops := 0; at != owner; hops++ {
				if hops == len(g.nodes) {
					return fmt.Errorf("page %d: chain from node %d does not reach owner %d in %d hops",
						p, n, owner, hops)
				}
				at = g.nodes[at].pages[p].probOwner
			}
		}
	}
	return nil
}

// CheckTwins verifies the twin invariants of a finished run: every
// release has dropped its twins, so no page holds one and no page is
// left dirtied; every spare twin is a whole page; and no twin sits on
// the spare list twice, which would hand one buffer to two pages.
func CheckTwins(g *Globals) error {
	for n, r := range g.nodes {
		if len(r.dirtied) != 0 {
			return fmt.Errorf("node %d: %d pages still dirtied", n, len(r.dirtied))
		}
		for p := range r.pages {
			if b := r.pages[p].book; b != nil && b.twin != nil {
				return fmt.Errorf("node %d: page %d still holds a twin", n, p)
			}
		}
		seen := make(map[*uint64]int, len(r.spareTwins))
		for i, tw := range r.spareTwins {
			if len(tw) != g.pageWords {
				return fmt.Errorf("node %d: spare twin %d is %d words, want %d", n, i, len(tw), g.pageWords)
			}
			if j, dup := seen[&tw[0]]; dup {
				return fmt.Errorf("node %d: spare twins %d and %d share a buffer", n, j, i)
			}
			seen[&tw[0]] = i
		}
	}
	return nil
}

// CheckNotices verifies the write-notice invariants of a finished run:
// every page's notice list is strictly ascending by writer and names
// intervals from 1 up; and a node keeps a book only for the pages it
// owns or holds words for, so notices alone never make one.
func CheckNotices(g *Globals) error {
	for n, r := range g.nodes {
		for p := range r.pages {
			pg := &r.pages[p]
			for i, nt := range pg.notices {
				if nt.idx < 1 {
					return fmt.Errorf("node %d page %d: notice %d names interval %d of writer %d",
						n, p, i, nt.idx, nt.writer)
				}
				if i > 0 && nt.writer <= pg.notices[i-1].writer {
					return fmt.Errorf("node %d page %d: notices out of writer order: %v", n, p, pg.notices)
				}
			}
			if pg.book != nil && !pg.owned && pg.words == nil {
				return fmt.Errorf("node %d page %d: a book for a page it neither owns nor holds", n, p)
			}
		}
	}
	return nil
}

// CheckRegion verifies the page-granular memory of a finished run. On
// every node and page: the view is non-nil exactly when the page is
// valid, and then it is the page's words; every owned page is
// materialized; and every materialized page is one page long. Across
// the whole cluster no two pages' words overlap, whether on one node
// or on two (a fetch that aliased the owner's words would share them).
func CheckRegion(g *Globals) error {
	type span struct {
		start      uintptr
		node, page int
	}
	pageBytes := uintptr(g.pageWords) * unsafe.Sizeof(uint64(0))
	var spans []span
	for n, r := range g.nodes {
		if len(r.view) != len(r.pages) {
			return fmt.Errorf("node %d: view of %d pages over a table of %d", n, len(r.view), len(r.pages))
		}
		for p := range r.pages {
			pg, v := &r.pages[p], r.view[p]
			if (v != nil) != (pg.state == pageValid) {
				return fmt.Errorf("node %d page %d: view set=%v in state %d", n, p, v != nil, pg.state)
			}
			if v != nil && (len(v) != len(pg.words) || &v[0] != &pg.words[0]) {
				return fmt.Errorf("node %d page %d: view is not the page's words", n, p)
			}
			if pg.owned && pg.words == nil {
				return fmt.Errorf("node %d page %d: owned but not materialized", n, p)
			}
			if pg.words == nil {
				continue
			}
			if len(pg.words) != g.pageWords {
				return fmt.Errorf("node %d page %d: %d words, want %d", n, p, len(pg.words), g.pageWords)
			}
			spans = append(spans, span{uintptr(unsafe.Pointer(&pg.words[0])), n, p})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
	for i := 1; i < len(spans); i++ {
		if a, b := spans[i-1], spans[i]; b.start < a.start+pageBytes {
			return fmt.Errorf("node %d page %d and node %d page %d share words", a.node, a.page, b.node, b.page)
		}
	}
	return nil
}

// Residency reports, per node, the pages it owns, the pages it holds
// words for and the pages it keeps a book for, and the size of the
// page table (one region).
func Residency(g *Globals) (owned, resident, books []int, region int) {
	for _, r := range g.nodes {
		o, h, b := 0, 0, 0
		for p := range r.pages {
			if r.pages[p].owned {
				o++
			}
			if r.pages[p].words != nil {
				h++
			}
			if r.pages[p].book != nil {
				b++
			}
		}
		owned, resident, books = append(owned, o), append(resident, h), append(books, b)
	}
	return owned, resident, books, len(g.nodes[0].pages)
}
