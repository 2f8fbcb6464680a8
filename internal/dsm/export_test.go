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
