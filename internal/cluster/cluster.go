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
	"cni/internal/metrics"
	"cni/internal/msgcache"
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

// engine is what drives a run: the single kernel, or the shard set of
// a sharded run.
type engine interface {
	Run() sim.Time
	Drain()
	Executed() uint64
	Now() sim.Time
}

// Cluster is the whole machine. Every node lives on the kernel
// Net.NodeKernel returns for it.
type Cluster struct {
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

	eng engine
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
		c.Net, c.SS, c.eng = net, ss, ss
	} else {
		k := sim.NewKernel()
		net, err := atm.New(k, cfg, n)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		c.Net, c.eng = net, k
	}
	c.Coll = collective.NewEngine(cfg)
	c.RPC = rpc.NewEngine(cfg)
	c.KV = kv.NewEngine(cfg)
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
func (c *Cluster) Executed() uint64 { return c.eng.Executed() }

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

// PreloadU64 writes an initial value into the shared word's owner's
// copy, outside simulated time (the memory image the program starts
// from). Before a run the owner is the page's static home; every other
// node's copy starts invalid and is overwritten by its first fetch.
// Nothing is marked dirty and no traffic results.
func (c *Cluster) PreloadU64(idx int, v uint64) {
	c.Nodes[c.G.OwnerOfWord(idx)].R.Poke(idx, v)
}

// PreloadF64 is PreloadU64 for float64 values.
func (c *Cluster) PreloadF64(idx int, v float64) {
	c.Nodes[c.G.OwnerOfWord(idx)].R.PokeF64(idx, v)
}

// ReadU64 reads the authoritative copy of a shared word after a run;
// valid once the application has ended with a barrier. The
// authoritative copy lives at the page's static home under central
// ownership and follows the current owner under distributed ownership.
func (c *Cluster) ReadU64(idx int) uint64 {
	return c.Nodes[c.G.OwnerOfWord(idx)].R.Peek(idx)
}

// ReadF64 is ReadU64 for float64 values.
func (c *Cluster) ReadF64(idx int) float64 {
	return c.Nodes[c.G.OwnerOfWord(idx)].R.PeekF64(idx)
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

// Totals is one node's share of the cluster-wide counters; Run folds
// every node's Totals into its Result with metrics.Fold.
type Totals struct {
	Time      sim.Time `fold:"max"` // wall time: the last worker's finish time
	Coll      collective.Stats
	RPC       rpc.Stats       // request/response activity
	RPCLat    rpc.Latencies   // exact request-latency samples over all clients
	KV        kv.Stats        // key-value serving activity
	KVLat     rpc.Latencies   // exact KV latency samples (OK/NotFound) over all clients
	KVHit     rpc.Latencies   // KV GET latency, board-cache-served
	KVHost    rpc.Latencies   // KV GET latency, host-served
	Tenants   []tenant.Stats  // per-tenant outcomes
	TenantLat []rpc.Latencies // exact per-tenant latency samples
	Rel       nic.RelStats    // reliability activity
	DSM       dsm.Stats       // DSM protocol activity
	MC        msgcache.Stats  // Message Cache activity (none on boards without one)
}

// Result is the outcome of one Run.
type Result struct {
	PerNode []NodeStats
	Net     atm.Stats
	Totals  // summed over nodes; Time and peaks keep the per-node maximum
	// MaxManagerMsgs is the largest per-node DSM.OwnerMsgs, the manager
	// hotspot FD1 plots; MaxManagerNode is the node holding it.
	MaxManagerMsgs uint64
	MaxManagerNode int
	HitRatio       float64 // aggregate network cache hit ratio, percent

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
	c.eng.Run()
	c.Net.Finish()

	res := &Result{Net: c.Net.Stats}
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
			c.eng.Drain()
			panic(fmt.Sprintf("cluster: node %d never finished (deadlock at t=%d); tasks: %s%s",
				n.ID, c.eng.Now(), c.G.TaskDebug(), states.String()))
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
		var mc msgcache.Stats
		if n.Board.MC != nil {
			mc = n.Board.MC.Stats
		}
		kn := c.KV.Node(n.ID)
		metrics.Fold(&res.Totals, Totals{
			Time: n.finish, Coll: ns.Coll, RPC: ns.RPC, RPCLat: c.RPC.Node(n.ID).Lat,
			KV: kn.Stats, KVLat: kn.Lat, KVHit: kn.HitLat, KVHost: kn.HostLat,
			Tenants: kn.TStats, TenantLat: kn.TLat,
			Rel: ns.NIC.Rel, DSM: ns.DSM, MC: mc,
		})
		if ns.DSM.OwnerMsgs > res.MaxManagerMsgs {
			res.MaxManagerMsgs, res.MaxManagerNode = ns.DSM.OwnerMsgs, n.ID
		}
		res.AvgOverhead += overhead
		res.AvgDelay += delay
	}
	n := sim.Time(len(c.Nodes))
	res.AvgOverhead /= n
	res.AvgDelay /= n
	res.AvgComputation = res.Time - res.AvgOverhead - res.AvgDelay
	res.HitRatio = res.MC.HitRatio()
	return res
}
