// Package topo generalizes the cluster interconnect from the paper's
// single 32-port banyan switch to a routed multi-switch graph. A
// Topology owns the fabric's contended resources — one injection link
// per node and one sim.Resource per switch output port — and computes,
// for every (src, dst) pair, the deterministic sequence of output
// ports a message crosses. The atm.Network walks that route hop by
// hop, charging cut-through pipelining and per-hop contention, so the
// same NIC models and cost calibration run unchanged on fabrics from
// 2 to 1024+ nodes.
//
// Three topologies are implemented:
//
//   - single: the paper's output-queued banyan switch. Routes are one
//     hop (the destination's output port) and the timing is
//     byte-identical to the pre-topology fabric.
//   - clos: a three-level k-ary fat-tree (k even): k pods of k/2 edge
//     and k/2 aggregation switches, (k/2)^2 core switches, k^3/4
//     hosts. Upward path selection is deterministic d-mod-k: the
//     destination id picks the aggregation and core switch, so flows
//     to distinct destinations spread across the core while every
//     packet of one flow takes one path (no reordering).
//   - torus: a 3D torus of per-node routers (the APEnet-style direct
//     network) with deadlock-free dimension-order routing: X, then Y,
//     then Z, each dimension traversed in its shorter wrap direction.
//
// Every link of the graph has a stable integer edge id; ids 0..n-1 are
// always the node injection links, so the fault injector's per-link
// RNG streams are a pure function of the topology and the seed.
package topo

import (
	"fmt"

	"cni/internal/config"
	"cni/internal/sim"
)

// Hop is one switch traversal on a route: the switch output port the
// message must win toward the next element of the path, and the stable
// edge id of the link that port drives.
type Hop struct {
	Port *sim.Resource
	Edge int
}

// Topology is a routed switching fabric.
type Topology interface {
	// Kind reports the registered topology name ("single", "clos",
	// "torus").
	Kind() string
	// Nodes reports the number of attached nodes.
	Nodes() int
	// Edges reports the number of distinct links in the graph,
	// injection links included. Edge ids are dense in [0, Edges()) and
	// ids 0..Nodes()-1 are the injection links.
	Edges() int
	// TxLink returns node's injection link (edge id == node).
	TxLink(node int) *sim.Resource
	// Route appends the switch output ports a message from src to dst
	// crosses, in path order, to buf and returns it. src != dst; the
	// last hop is always the destination's delivery port. Routes are a
	// pure function of (src, dst): deterministic and minimal. Route
	// must be safe to call at once from several goroutines, since every
	// shard worker resolves its own sends' routes: it may only read the
	// fixed geometry, never a port's state.
	Route(src, dst int, buf []Hop) []Hop
	// Diameter reports the maximum route length in switch hops.
	Diameter() int
	// Describe returns a one-line human-readable geometry summary.
	Describe() string
	// Partition maps every node to a shard for conservative-parallel
	// execution, using at most shards shards (fewer when the geometry
	// cannot fill them). Shard ids are dense from 0, assignments are
	// balanced, and boundaries respect the topology — contiguous
	// id blocks (coordinate slabs) on the torus, whole pods on the
	// fat-tree — so cross-shard traffic crosses real fabric links.
	// The mapping is a pure function of (geometry, shards); the shard
	// count therefore never leaks into routing, fault streams, or any
	// other simulated behavior.
	Partition(shards int) []int
}

// blockPartition assigns contiguous, balanced blocks of node ids to
// min(shards, n) shards: shard boundaries differ in size by at most
// one node and every shard is non-empty.
func blockPartition(n, shards int) []int {
	eff := shards
	if eff > n {
		eff = n
	}
	if eff < 1 {
		eff = 1
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i * eff / n
	}
	return out
}

// New builds the topology selected by cfg for n nodes. It returns an
// error — not a panic — when the node count exceeds what the topology
// or its configured geometry can address, since that is user input.
func New(cfg *config.Config, n int) (Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topo: %d nodes", n)
	}
	switch cfg.TopologyOrDefault() {
	case config.TopoSingle:
		return newSingle(cfg, n)
	case config.TopoClos:
		return newClos(cfg, n)
	case config.TopoTorus:
		return newTorus(cfg, n)
	default:
		return nil, fmt.Errorf("topo: unknown topology %q", cfg.Topology)
	}
}
