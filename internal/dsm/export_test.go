package dsm

import "fmt"

// CheckOwnership verifies the ownership invariants of a finished run:
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
