package topo

import (
	"fmt"

	"cni/internal/config"
	"cni/internal/sim"
)

// single is the paper's fabric: every node's injection link feeds one
// output-queued banyan switch, and the only blocking point past the
// source is the destination's output port. Routes are exactly one hop,
// which makes the atm walk arithmetically identical to the original
// closed-form single-switch model (the golden parity test in
// internal/atm pins this).
type single struct {
	tx  []sim.Resource
	out []sim.Resource
}

func newSingle(cfg *config.Config, n int) (*single, error) {
	if n > cfg.SwitchPorts {
		return nil, fmt.Errorf("topo: %d nodes on a %d-port switch (use a clos or torus topology to scale past the banyan)", n, cfg.SwitchPorts)
	}
	return &single{tx: make([]sim.Resource, n), out: make([]sim.Resource, n)}, nil
}

func (s *single) Kind() string { return config.TopoSingle }

func (s *single) Nodes() int { return len(s.tx) }

// Edges: injection links 0..n-1, then the switch's output-port links
// n..2n-1.
func (s *single) Edges() int { return 2 * len(s.tx) }

func (s *single) TxLink(node int) *sim.Resource { return &s.tx[node] }

func (s *single) Route(src, dst int, buf []Hop) []Hop {
	return append(buf, Hop{Port: &s.out[dst], Edge: len(s.tx) + dst})
}

func (s *single) Diameter() int { return 1 }

// Partition on the single switch has no geometry to respect: balanced
// contiguous id blocks.
func (s *single) Partition(shards int) []int { return blockPartition(len(s.tx), shards) }

func (s *single) Describe() string {
	return fmt.Sprintf("single output-queued banyan switch, %d nodes", len(s.tx))
}
