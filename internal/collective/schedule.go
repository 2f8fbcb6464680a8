package collective

// Schedules are pure functions of (rank, root, size) so that every node
// — and, on the CNI, every board — derives the identical communication
// pattern independently: there is no central coordinator to talk to,
// which is the point of offloading the collective in the first place.

// ispow2 reports whether n is a positive power of two.
func ispow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// DissemRounds returns the number of dissemination rounds for an n-node
// collective: ceil(log2 n), and 0 for a single node.
func DissemRounds(n int) int {
	r := 0
	for d := 1; d < n; d *= 2 {
		r++
	}
	return r
}

// DissemTo returns the node rank signals in dissemination round round.
func DissemTo(rank, round, n int) int {
	return (rank + 1<<round) % n
}

// TreeParent returns rank's parent in the binomial tree rooted at root,
// or -1 for the root itself. The tree is defined on relative ranks
// rr = (rank-root) mod n: a node's parent clears rr's lowest set bit.
func TreeParent(rank, root, n int) int {
	rr := (rank - root + n) % n
	if rr == 0 {
		return -1
	}
	return (rr&(rr-1) + root) % n
}

// TreeChildren returns rank's children in the binomial tree rooted at
// root, in ascending relative-rank order (the order subtree results are
// folded, so the reduction is associativity-deterministic).
func TreeChildren(rank, root, n int) []int {
	rr := (rank - root + n) % n
	var kids []int
	for mask := 1; mask < n; mask <<= 1 {
		if rr&mask != 0 {
			break
		}
		if c := rr + mask; c < n {
			kids = append(kids, (c+root)%n)
		}
	}
	return kids
}

// useDissem decides whether an episode runs the dissemination schedule
// (symmetric, no root) or the binomial tree. Barriers always
// disseminate; rooted kinds are always trees. The dissemination
// all-reduce combines each contribution exactly once only when n is a
// power of two; otherwise it would double-count, so general n falls
// back to the tree.
func useDissem(kind Kind, n int) bool {
	switch kind {
	case KindBarrier:
		return true
	case KindAllReduce:
		return ispow2(n)
	default:
		return false
	}
}
