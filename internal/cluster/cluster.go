// Package cluster assembles the simulated machine of the CNI paper:
// n workstation nodes — each a CPU (sim.Proc) with a write-back cache
// hierarchy (memsys), a network adaptor board (nic, either the CNI or
// the standard interface) — connected by the ATM fabric (atm), running
// the lazy-release-consistency DSM (dsm).
//
// A Run executes one application (a function per node, SPMD style) and
// reports the paper's metrics: wall time, the synchronization overhead
// / synchronization delay / computation breakdown of Tables 2-4, the
// network cache hit ratio, and the traffic counters.
package cluster

import (
	"fmt"
	"strings"

	"cni/internal/atm"
	"cni/internal/collective"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/kv"
	"cni/internal/memsys"
	"cni/internal/nic"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/tenant"
	"cni/internal/trace"
)

// Node is one workstation.
type Node struct {
	ID    int
	Mem   *memsys.Hierarchy
	Board *nic.Board
	R     *dsm.Runtime
	W     *dsm.Worker
	Proc  *sim.Proc

	finish sim.Time
}

// Cluster is the whole machine.
type Cluster struct {
	// K is the simulation kernel on single-kernel runs. On sharded runs
	// (SS non-nil) every node lives on its shard's kernel — reach those
	// through Net.NodeKernel — and K aliases shard 0's, for callers that
	// only need construction-time scheduling context.
	K  *sim.Kernel
	SS *sim.ShardSet // non-nil when the run executes as parallel shards
	// ShardClamp records why a SimShards request was reduced to one
	// shard ("" when the request was honored as-is).
	ShardClamp string
	Cfg        *config.Config
	Net        *atm.Network
	G          *dsm.Globals
	Coll       *collective.Engine
	RPC        *rpc.Engine
	KV         *kv.Engine
	Nodes      []*Node
}

// Setup allocates the shared region (identically on every run).
type Setup func(g *dsm.Globals)

// App is the SPMD application body executed by every node's worker.
type App func(w *dsm.Worker)

// New builds a cluster of n nodes. setup runs before the nodes are
// wired so homes can be distributed over the allocated region. The
// config and the node count are user input, so an invalid combination
// (bad knobs, more nodes than the topology can address) is an error,
// not a panic.
func New(cfg *config.Config, n int, setup Setup) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c := &Cluster{
		Cfg: cfg,
		G:   dsm.NewGlobals(cfg),
	}
	if setup != nil {
		setup(c.G)
	}
	c.G.Freeze(n)
	// DSM page transfers read the serving node's live memory at delivery
	// time (Runtime.copyPageFrom) — a zero-lookahead cross-node access no
	// conservative window can order. Runs that allocate shared pages
	// therefore execute on one kernel regardless of SimShards; everything
	// else (boards, RPC, KV, collectives, DSM locks and barriers) is
	// message-carried and shards.
	shards := cfg.SimShards
	if shards >= 1 && c.G.Pages() > 0 {
		shards = 0
		c.ShardClamp = "DSM pages allocated: page transfers have zero lookahead"
	}
	if shards >= 1 {
		net, ss, err := atm.NewSharded(cfg, n, shards, sim.EngineCalendar)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.Net, c.SS = net, ss
		c.K = net.NodeKernel(0)
	} else {
		c.K = sim.NewKernel()
		net, err := atm.New(c.K, cfg, n)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.Net = net
	}
	c.Coll = collective.NewEngine(cfg, c.K)
	c.RPC = rpc.NewEngine(cfg, c.K)
	c.KV = kv.NewEngine(cfg, c.K)
	for i := 0; i < n; i++ {
		node := &Node{ID: i}
		node.Mem = memsys.New(cfg)
		k := c.Net.NodeKernel(i)
		node.Board = nic.NewBoard(k, cfg, i, c.Net, node.Mem)
		node.R = dsm.NewRuntime(c.G, k, i, n, node.Board)
		node.R.SetCollective(c.Coll.Attach(node.Board))
		c.RPC.Attach(node.Board)
		c.KV.Attach(node.Board)
		c.Nodes = append(c.Nodes, node)
	}
	return c, nil
}

// Shards reports the effective shard count the run executes on.
func (c *Cluster) Shards() int {
	if c.SS != nil {
		return c.SS.Shards()
	}
	return 1
}

// Executed reports the total number of simulation events executed, over
// every shard kernel.
func (c *Cluster) Executed() uint64 {
	if c.SS != nil {
		return c.SS.Executed()
	}
	return c.K.Executed()
}

// now is the simulation clock for diagnostics: the latest event time
// any shard has reached.
func (c *Cluster) now() sim.Time {
	if c.SS != nil {
		return c.SS.Now()
	}
	return c.K.Now()
}

// EnableTrace attaches a bounded protocol-event log (capacity cap
// events) to every node and returns it; call before Run.
func (c *Cluster) EnableTrace(cap int) *trace.Log {
	if c.SS != nil {
		panic("cluster: tracing needs a single-kernel run (the log is one ordered stream); build with SimShards <= 1")
	}
	l := trace.New(cap)
	for _, n := range c.Nodes {
		n.R.SetTrace(l)
	}
	c.Coll.EnableTrace(l)
	return l
}

// PreloadU64 writes an initial value into every node's copy of the
// shared word, outside simulated time (the memory image the program
// starts from). Nothing is marked dirty and no traffic results.
func (c *Cluster) PreloadU64(idx int, v uint64) {
	for _, n := range c.Nodes {
		n.R.Poke(idx, v)
	}
}

// PreloadF64 is PreloadU64 for float64 values.
func (c *Cluster) PreloadF64(idx int, v float64) {
	for _, n := range c.Nodes {
		n.R.PokeF64(idx, v)
	}
}

// ReadU64 reads the authoritative copy of a shared word after a run;
// valid once the application has ended with a barrier. The
// authoritative copy lives at the page's static home under central
// ownership and follows the current owner under distributed ownership.
func (c *Cluster) ReadU64(idx int) uint64 {
	owner := c.G.OwnerOf(int32(idx * c.Cfg.WordBytes / c.Cfg.PageBytes))
	return c.Nodes[owner].R.Peek(idx)
}

// ReadF64 is ReadU64 for float64 values.
func (c *Cluster) ReadF64(idx int) float64 {
	owner := c.G.OwnerOf(int32(idx * c.Cfg.WordBytes / c.Cfg.PageBytes))
	return c.Nodes[owner].R.PeekF64(idx)
}

// NodeStats is the per-node breakdown in the shape of the paper's
// overhead tables.
type NodeStats struct {
	Total       sim.Time
	Overhead    sim.Time // synchronization overhead: protocol work on the CPU
	Delay       sim.Time // synchronization delay: cycles spent blocked
	Computation sim.Time // Total - Overhead - Delay
	DSM         dsm.Stats
	NIC         nic.Stats
	Coll        collective.Stats
	RPC         rpc.Stats
	KV          kv.Stats
}

// DSMStats is the cluster-level view of the DSM protocol's activity:
// the counters that characterize the ownership organization, promoted
// from the per-node dsm.Stats so consumers (cmd/cnisim, the FD1
// artifact) read one struct instead of walking PerNode.
type DSMStats struct {
	Faults        uint64 // page accesses that stalled or fetched, summed
	Fetches       uint64 // page requests served by homes/owners, summed
	Invalidations uint64 // page invalidations from write notices, summed
	// ManagerMsgs counts protocol messages handled in a manager/owner
	// role (page requests and diffs at the owner, lock/barrier/task
	// traffic at the manager), summed over nodes.
	ManagerMsgs uint64
	// MaxManagerMsgs is the largest per-node manager-role count — the
	// hotspot metric: under central ownership the barrier manager and
	// bag server at node 0 dominate it, under distributed ownership the
	// load spreads.
	MaxManagerMsgs uint64
	// MaxManagerNode is the node holding MaxManagerMsgs.
	MaxManagerNode int
	Forwards       uint64 // probable-owner chain forwards, summed
	Migrations     uint64 // ownership migrations, summed
	// Chain is the chain-length histogram over every completed fetch:
	// bucket i counts fetches forwarded i times (last bucket: longer).
	Chain dsm.ChainHist
}

// MeanChain reports the mean forwarding-chain length over completed
// fetches (0 when no fetch was observed, as under central ownership).
func (d *DSMStats) MeanChain() float64 {
	total := d.Chain.Total()
	if total == 0 {
		return 0
	}
	var weighted uint64
	for i, v := range d.Chain {
		weighted += uint64(i) * v
	}
	return float64(weighted) / float64(total)
}

// Result is the outcome of one Run.
type Result struct {
	Time      sim.Time // wall time: the last worker's finish time
	PerNode   []NodeStats
	Net       atm.Stats
	Coll      collective.Stats // summed over nodes
	RPC       rpc.Stats        // request/response activity summed over nodes
	RPCLat    rpc.Latencies    // exact request-latency samples over all clients
	KV        kv.Stats         // key-value serving activity summed over nodes
	KVLat     rpc.Latencies    // exact KV latency samples (OK/NotFound) over all clients
	KVHit     rpc.Latencies    // KV GET latency, board-cache-served
	KVHost    rpc.Latencies    // KV GET latency, host-served
	Tenants   []tenant.Stats   // per-tenant outcomes and latency, merged over nodes
	TenantLat []rpc.Latencies  // exact per-tenant latency samples
	Rel       nic.RelStats     // reliability activity summed over nodes
	DSM       DSMStats         // DSM protocol activity aggregated over nodes
	HitRatio  float64          // aggregate network cache hit ratio, percent

	// Averages across nodes (the shape Tables 2-4 report).
	AvgOverhead    sim.Time
	AvgDelay       sim.Time
	AvgComputation sim.Time
}

// Run executes app on every node and gathers the metrics. It may be
// called once per Cluster.
func (c *Cluster) Run(app App) *Result {
	for _, n := range c.Nodes {
		n := n
		n.Proc = c.Net.NodeKernel(n.ID).Spawn(fmt.Sprintf("cpu%d", n.ID), func(p *sim.Proc) {
			n.W = n.R.NewWorker(p, n.Mem)
			app(n.W)
			p.Sync()
			n.finish = p.Local()
		})
	}
	if c.SS != nil {
		c.SS.Run()
	} else {
		c.K.Run()
	}
	c.Net.Finish()

	res := &Result{Net: c.Net.Stats}
	var hits, misses uint64
	for _, n := range c.Nodes {
		if !n.Proc.Finished() {
			var states strings.Builder
			for _, m := range c.Nodes {
				fmt.Fprintf(&states, "\n  node %d: finished=%v waiting=%s",
					m.ID, m.Proc.Finished(), m.W.Waiting())
				if cnt, sample := m.R.PendingHomeRequests(); cnt > 0 {
					fmt.Fprintf(&states, " parkedHomeReqs=%d [%s]", cnt, sample)
				}
			}
			if c.SS != nil {
				c.SS.Drain()
			} else {
				c.K.Drain()
			}
			panic(fmt.Sprintf("cluster: node %d never finished (deadlock at t=%d); tasks: %s%s",
				n.ID, c.now(), c.G.TaskDebug(), states.String()))
		}
		if n.finish > res.Time {
			res.Time = n.finish
		}
		overhead := n.R.Stats.Overhead + n.Proc.PenaltyTime
		delay := n.Proc.BlockedTime
		ns := NodeStats{
			Total:       n.finish,
			Overhead:    overhead,
			Delay:       delay,
			Computation: n.finish - overhead - delay,
			DSM:         n.R.Stats,
			NIC:         n.Board.Stats,
			Coll:        c.Coll.Node(n.ID).Stats,
			RPC:         c.RPC.Node(n.ID).Stats,
			KV:          c.KV.Node(n.ID).Stats,
		}
		res.PerNode = append(res.PerNode, ns)
		res.Coll.Merge(ns.Coll)
		res.RPC.Merge(ns.RPC)
		res.RPCLat.Merge(c.RPC.Node(n.ID).Lat)
		kn := c.KV.Node(n.ID)
		res.KV.Merge(kn.Stats)
		res.KVLat.Merge(kn.Lat)
		res.KVHit.Merge(kn.HitLat)
		res.KVHost.Merge(kn.HostLat)
		res.Tenants = tenant.MergeSlices(res.Tenants, kn.TStats)
		for len(res.TenantLat) < len(kn.TLat) {
			res.TenantLat = append(res.TenantLat, rpc.Latencies{})
		}
		for i := range kn.TLat {
			res.TenantLat[i].Merge(kn.TLat[i])
		}
		res.Rel.Merge(ns.NIC.Rel)
		res.DSM.Faults += ns.DSM.PageFaults
		res.DSM.Fetches += ns.DSM.PageFetches
		res.DSM.Invalidations += ns.DSM.Invalidates
		res.DSM.ManagerMsgs += ns.DSM.OwnerMsgs
		if ns.DSM.OwnerMsgs > res.DSM.MaxManagerMsgs {
			res.DSM.MaxManagerMsgs = ns.DSM.OwnerMsgs
			res.DSM.MaxManagerNode = n.ID
		}
		res.DSM.Forwards += ns.DSM.Forwards
		res.DSM.Migrations += ns.DSM.Migrations
		res.DSM.Chain.Merge(ns.DSM.Chain)
		res.AvgOverhead += overhead
		res.AvgDelay += delay
		if n.Board.MC != nil {
			hits += n.Board.MC.Stats.TxHits
			misses += n.Board.MC.Stats.TxMisses
		}
	}
	n := sim.Time(len(c.Nodes))
	res.AvgOverhead /= n
	res.AvgDelay /= n
	res.AvgComputation = res.Time - res.AvgOverhead - res.AvgDelay
	if hits+misses > 0 {
		res.HitRatio = 100 * float64(hits) / float64(hits+misses)
	}
	return res
}
