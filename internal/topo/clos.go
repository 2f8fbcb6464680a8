package topo

import (
	"fmt"

	"cni/internal/config"
	"cni/internal/sim"
)

// clos is a three-level k-ary fat-tree (k even): k pods, each with k/2
// edge switches (k/2 hosts apiece) and k/2 aggregation switches, plus
// (k/2)^2 core switches — k^3/4 hosts at full population, with full
// bisection bandwidth when flows spread over the core.
//
// Path selection is deterministic d-mod-k: the destination id alone
// picks the aggregation switch (dst mod k/2) and the core switch
// ((dst / (k/2)) mod k/2 among that aggregation's uplinks). All
// packets of one flow take one path (no reordering), flows to distinct
// destinations spread across distinct spines, and routes are a pure
// function of (src, dst), which keeps runs bit-identical.
//
// The five port planes all have exactly k^3/4 links; with the n
// injection links first, edge ids are dense and stable.
type clos struct {
	nodes int
	k     int // radix
	half  int // k/2: hosts per edge switch, switches per pod layer

	tx []sim.Resource

	// Port planes, indexed arithmetically (see idx and coreIdx).
	edgeDown []sim.Resource // edge (p,e) -> host h
	edgeUp   []sim.Resource // edge (p,e) -> agg a
	aggDown  []sim.Resource // agg (p,a) -> edge e
	aggUp    []sim.Resource // agg (p,a) -> core a*half+j
	coreDown []sim.Resource // core c -> pod p
}

// ClosCapacity reports how many hosts a radix-k fat-tree addresses.
func ClosCapacity(k int) int { return k * k * k / 4 }

// ClosRadixFor picks the smallest even radix >= 4 whose fat-tree
// addresses n hosts.
func ClosRadixFor(n int) int {
	k := 4
	for ClosCapacity(k) < n {
		k += 2
	}
	return k
}

// Partition keeps whole pods together: every intra-pod route (edge or
// aggregation level) stays shard-local and only pod-to-pod traffic —
// which crosses the core anyway — crosses shards. Pods are assigned to
// shards in balanced contiguous runs, so at most min(shards, pods)
// shards are used.
func (c *clos) Partition(shards int) []int {
	perPod := c.half * c.half
	pods := (c.nodes + perPod - 1) / perPod
	podShard := blockPartition(pods, shards)
	out := make([]int, c.nodes)
	for id := range out {
		out[id] = podShard[id/perPod]
	}
	return out
}

func newClos(cfg *config.Config, n int) (*clos, error) {
	k := cfg.ClosRadix
	if k == 0 {
		k = ClosRadixFor(n)
	}
	if k < 4 || k%2 != 0 {
		return nil, fmt.Errorf("topo: clos radix %d must be an even number >= 4", k)
	}
	if n > ClosCapacity(k) {
		return nil, fmt.Errorf("topo: %d nodes exceed the %d-host capacity of a radix-%d fat-tree", n, ClosCapacity(k), k)
	}
	links := ClosCapacity(k)
	return &clos{
		nodes:    n,
		k:        k,
		half:     k / 2,
		tx:       make([]sim.Resource, n),
		edgeDown: make([]sim.Resource, links),
		edgeUp:   make([]sim.Resource, links),
		aggDown:  make([]sim.Resource, links),
		aggUp:    make([]sim.Resource, links),
		coreDown: make([]sim.Resource, links),
	}, nil
}

func (c *clos) Kind() string { return config.TopoClos }

func (c *clos) Nodes() int { return c.nodes }

func (c *clos) Edges() int { return c.nodes + 5*ClosCapacity(c.k) }

func (c *clos) TxLink(node int) *sim.Resource { return &c.tx[node] }

// Radix reports the configured (or auto-picked) switch radix.
func (c *clos) Radix() int { return c.k }

// host decomposes a node id into (pod, edge switch, host slot).
func (c *clos) host(id int) (p, e, h int) {
	perPod := c.half * c.half
	return id / perPod, (id % perPod) / c.half, id % c.half
}

// Plane index helpers: within a plane, ports are dense by
// (pod, switch, port) — or (core, pod) for the core plane.
func (c *clos) idx(p, s, q int) int { return (p*c.half+s)*c.half + q }

// hop builds the Hop for slot i of the numbered plane (0 edgeDown,
// 1 edgeUp, 2 aggDown, 3 aggUp, 4 coreDown).
func (c *clos) hop(plane []sim.Resource, planeNo, i int) Hop {
	return Hop{Port: &plane[i], Edge: c.nodes + planeNo*ClosCapacity(c.k) + i}
}

func (c *clos) Route(src, dst int, buf []Hop) []Hop {
	ps, es, _ := c.host(src)
	pd, ed, hd := c.host(dst)
	if ps == pd && es == ed {
		// One edge switch: straight down to the destination host.
		return append(buf, c.hop(c.edgeDown, 0, c.idx(pd, ed, hd)))
	}
	a := dst % c.half // d-mod-k aggregation choice
	if ps == pd {
		// Within the pod: up to aggregation a, back down.
		return append(buf,
			c.hop(c.edgeUp, 1, c.idx(ps, es, a)),
			c.hop(c.aggDown, 2, c.idx(pd, a, ed)),
			c.hop(c.edgeDown, 0, c.idx(pd, ed, hd)))
	}
	// Across pods: up to aggregation a, its j-th core uplink, down into
	// the destination pod. Core a*half+j is wired to aggregation a of
	// every pod, so the downward path is forced.
	j := (dst / c.half) % c.half
	core := a*c.half + j
	return append(buf,
		c.hop(c.edgeUp, 1, c.idx(ps, es, a)),
		c.hop(c.aggUp, 3, c.idx(ps, a, j)),
		c.hop(c.coreDown, 4, c.coreIdx(core, pd)),
		c.hop(c.aggDown, 2, c.idx(pd, a, ed)),
		c.hop(c.edgeDown, 0, c.idx(pd, ed, hd)))
}

// coreIdx indexes the core plane: core c's port toward pod p.
func (c *clos) coreIdx(core, p int) int { return core*c.k + p }

func (c *clos) Diameter() int { return 5 }

func (c *clos) Describe() string {
	return fmt.Sprintf("radix-%d fat-tree (%d pods, %d cores, %d-host capacity), %d nodes",
		c.k, c.k, c.half*c.half, ClosCapacity(c.k), c.nodes)
}
