package main

// The five workloads. Each generates its seeded inputs once per
// process and returns a builder that sets up a fresh machine for every
// pass, so every pass is the same setup → run → check of identical
// work. Sizes are chosen so a pass takes about a second on a 2-core
// host; the tiny sizes exist for the smoke test.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"cni/internal/apps"
	"cni/internal/apps/spmat"
	"cni/internal/atm"
	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/kv"
	"cni/internal/memsys"
	"cni/internal/nic"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/tenant"
	"cni/internal/workload"
)

// machine is one pass's simulated machine, already set up.
type machine struct {
	run   func()
	check func() (outcome, error)
}

// builder sets up a fresh machine at the given shard count.
type builder func(shards int) (*machine, error)

type benchWorkload struct {
	name string
	// shards is the shard count the timed passes request. The warm-up
	// pass runs at 0, so its digest doubles as a shard-parity check.
	shards int
	inputs func(seed uint64, tiny bool) builder
}

var workloads = []benchWorkload{
	{"dsm-jacobi", 0, jacobiInputs},
	{"dsm-cholesky", 2, choleskyInputs},
	{"fabric-torus", 2, torusInputs},
	{"serve-rpc", 0, rpcInputs},
	{"serve-kv", 0, kvInputs},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// outcome is what a checked pass reports: the kernel events it
// executed (the simulator's cost), the digest of the model's results,
// and the exact per-layer counts.
type outcome struct {
	events uint64
	digest uint64
	counts map[string]float64
}

// tally gathers one finished machine's public statistics.
type tally struct {
	events    uint64
	shards    int
	simCycles sim.Time
	net       atm.Stats
	boards    []*nic.Board
	mems      []*memsys.Hierarchy
	res       *cluster.Result // nil for the board-level fabric workload
	lat       *rpc.Latencies
}

func clusterTally(c *cluster.Cluster, res *cluster.Result, lat *rpc.Latencies) *tally {
	t := &tally{events: c.Executed(), shards: c.Shards(), simCycles: res.Time, net: res.Net, res: res, lat: lat}
	for _, n := range c.Nodes {
		t.boards = append(t.boards, n.Board)
		t.mems = append(t.mems, n.Mem)
	}
	return t
}

func ratio(a, b uint64) float64 { return div(float64(a), float64(b)) }

// exactCounts are the per-pass counts read from the public Stats, in
// report order. They repeat bit for bit from pass to pass.
var exactCounts = []metricName{
	{"sim.events", "count"}, {"sim.shards_effective", "count"},
	{"atm.messages", "count"}, {"atm.cells", "count"}, {"atm.hops", "count"},
	{"atm.port_wait_cycles", "cycles"}, {"atm.link_wait_cycles", "cycles"},
	{"nic.tx_dmas", "count"}, {"nic.interrupts", "count"}, {"nic.aih_runs", "count"}, {"nic.filter_served", "count"},
	{"msgcache.tx_hit_ratio", "ratio"},
	{"memsys.accesses", "count"}, {"memsys.l1_hit_ratio", "ratio"},
	{"dsm.page_faults", "count"}, {"dsm.diffs_sent", "count"},
	{"rpc.completed", "count"}, {"rpc.rejected", "count"},
	{"kv.board_hit_ratio", "ratio"}, {"kv.write_invals", "count"},
	{"tenant.throttled", "count"},
	{"model.sim_cycles", "cycles"}, {"model.p50_cycles", "cycles"}, {"model.p99_cycles", "cycles"},
}

// outcome folds the tally into counts and the model digest. The digest
// covers simulated results only — time, fabric, per-board, per-cache
// and per-node protocol statistics, and the latency percentiles — and
// not the event count, which is a cost of the simulator.
func (t *tally) outcome() outcome {
	var txDMAs, interrupts, aihRuns, filterServed, mcHits, mcMisses uint64
	for _, b := range t.boards {
		txDMAs += b.Stats.TxDMAs
		interrupts += b.Stats.Interrupts
		aihRuns += b.Stats.AIHRuns
		filterServed += b.Stats.FilterServed
		if b.MC != nil {
			mcHits += b.MC.Stats.TxHits
			mcMisses += b.MC.Stats.TxMisses
		}
	}
	var accesses, l1Hits, l1Misses uint64
	for _, m := range t.mems {
		accesses += m.Stats.Reads + m.Stats.Writes
		l1Hits += m.Stats.L1Hits
		l1Misses += m.Stats.L1Misses
	}
	var faults, diffs, throttled uint64
	var rs rpc.Stats
	var ks kv.Stats
	if t.res != nil {
		for _, ns := range t.res.PerNode {
			faults += ns.DSM.PageFaults
			diffs += ns.DSM.DiffsSent
		}
		for _, ts := range t.res.Tenants {
			throttled += ts.Throttled
		}
		rs, ks = t.res.RPC, t.res.KV
	}
	p50, p99 := t.lat.Percentile(50), t.lat.Percentile(99)
	counts := map[string]float64{
		"sim.events":            float64(t.events),
		"sim.shards_effective":  float64(t.shards),
		"atm.messages":          float64(t.net.Messages),
		"atm.cells":             float64(t.net.Cells),
		"atm.hops":              float64(t.net.HopCount),
		"atm.port_wait_cycles":  float64(t.net.PortWaits),
		"atm.link_wait_cycles":  float64(t.net.LinkWaits),
		"nic.tx_dmas":           float64(txDMAs),
		"nic.interrupts":        float64(interrupts),
		"nic.aih_runs":          float64(aihRuns),
		"nic.filter_served":     float64(filterServed),
		"msgcache.tx_hit_ratio": ratio(mcHits, mcHits+mcMisses),
		"memsys.accesses":       float64(accesses),
		"memsys.l1_hit_ratio":   ratio(l1Hits, l1Hits+l1Misses),
		"dsm.page_faults":       float64(faults),
		"dsm.diffs_sent":        float64(diffs),
		"rpc.completed":         float64(rs.Completed),
		"rpc.rejected":          float64(rs.Rejected),
		"kv.board_hit_ratio":    ratio(ks.HitLat.Count, ks.HitLat.Count+ks.HostLat.Count),
		"kv.write_invals":       float64(ks.WriteInvals),
		"tenant.throttled":      float64(throttled),
		"model.sim_cycles":      float64(t.simCycles),
		"model.p50_cycles":      float64(p50),
		"model.p99_cycles":      float64(p99),
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %+v %d %d", t.simCycles, t.net, p50, p99)
	for i, b := range t.boards {
		fmt.Fprintf(h, " %+v %+v", b.Stats, t.mems[i].Stats)
	}
	if t.res != nil {
		for _, ns := range t.res.PerNode {
			fmt.Fprintf(h, " %+v", ns)
		}
	}
	return outcome{events: t.events, digest: h.Sum64(), counts: counts}
}

// appBuilder runs a DSM application on the paper's CNI machine: setup
// is cluster.New plus App.Init, check is App.Verify.
func appBuilder(nodes int, app apps.App) builder {
	return func(shards int) (*machine, error) {
		cfg := config.ForNIC(config.NICCNI)
		cfg.SimShards = shards
		c, err := cluster.New(&cfg, nodes, app.Setup)
		if err != nil {
			return nil, err
		}
		app.Init(c)
		var res *cluster.Result
		return &machine{
			run: func() { res = c.Run(app.Body) },
			check: func() (outcome, error) {
				if err := app.Verify(c); err != nil {
					return outcome{}, err
				}
				return clusterTally(c, res, &rpc.Latencies{}).outcome(), nil
			},
		}, nil
	}
}

func jacobiInputs(_ uint64, tiny bool) builder {
	// The paper's relaxation problem has fixed boundary values and its
	// work does not depend on them, so the seed has nothing to vary.
	if tiny {
		return appBuilder(4, apps.NewJacobi(64, 2))
	}
	return appBuilder(16, apps.NewJacobi(1024, 10))
}

func choleskyInputs(seed uint64, tiny bool) builder {
	gen, nodes := spmat.BCSSTK14(), 8
	if tiny {
		gen, nodes = spmat.Small(64), 4
	}
	ch := apps.NewCholesky(gen)
	// The seed rescales the off-diagonal values. The nonzero structure,
	// and with it every task, lock and page the factorization touches,
	// stays fixed; shrinking off-diagonals keeps A strictly diagonally
	// dominant, hence positive definite.
	rng := sim.NewRNG(seed)
	for j := 0; j < ch.A.N; j++ {
		for p := ch.A.ColPtr[j] + 1; p < ch.A.ColPtr[j+1]; p++ {
			ch.A.Val[p] *= 0.5 + 0.5*rng.Float64()
		}
	}
	return appBuilder(nodes, ch)
}

// The fabric workload's board-level protocol: one 1 KB message per
// node per round, handled by an Application Interrupt Handler that
// timestamps its arrival.
const (
	torusOp    = 0x4254 // "BT", outside every protocol block of the repository
	torusBytes = 1024
	torusTx    = 0x10000 // transmit buffer
	torusRx    = 0x40000 // receive buffer
)

func torusInputs(seed uint64, tiny bool) builder {
	n, rounds := 1024, 256
	if tiny {
		n, rounds = 64, 4
	}
	// Round r sends node i's message to dst[r][i]: a fresh random
	// single-cycle permutation per round (Sattolo's shuffle), so every
	// node sends and receives exactly once per round.
	rng := sim.NewRNG(seed)
	dst := make([][]int, rounds)
	for r := range dst {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i)
			p[i], p[j] = p[j], p[i]
		}
		dst[r] = p
	}
	want := n * rounds
	base := config.ForNIC(config.NICCNI)
	base.Topology = config.TopoTorus
	// Generators pace at the link serialization rate of one message.
	pace := base.SerializeCycles(nic.HeaderBytes + torusBytes)

	return func(shards int) (*machine, error) {
		cfg := base
		cfg.SimShards = shards
		var (
			net *atm.Network
			ss  *sim.ShardSet
			k   *sim.Kernel
			err error
		)
		if shards >= 1 {
			net, ss, err = atm.NewSharded(&cfg, n, shards, sim.EngineCalendar)
		} else {
			k = sim.NewKernel()
			net, err = atm.New(k, &cfg, n)
		}
		if err != nil {
			return nil, err
		}
		t := &tally{shards: 1}
		if ss != nil {
			t.shards = ss.Shards()
		}
		// Per-node receive state, folded in node order after the run, so
		// shards never share a variable.
		lats := make([]rpc.Latencies, n)
		last := make([]sim.Time, n)
		for i := 0; i < n; i++ {
			mem := memsys.New(&cfg)
			b := nic.NewBoard(net.NodeKernel(i), &cfg, i, net, mem)
			b.MapPages(torusTx, 1<<16)
			b.MapPages(torusRx, 1<<16)
			lat, at := &lats[i], &last[i]
			b.Register(torusOp, true, func(now sim.Time, m *nic.Message) {
				lat.Add(now - m.Payload.(sim.Time))
				*at = now
			})
			t.boards = append(t.boards, b)
			t.mems = append(t.mems, mem)
		}
		procs := make([]*sim.Proc, n)
		for i := 0; i < n; i++ {
			b := t.boards[i]
			procs[i] = net.NodeKernel(i).Spawn("gen"+strconv.Itoa(i), func(p *sim.Proc) {
				for r := range dst {
					p.Sync()
					b.Send(p, &nic.Message{
						From: i, To: dst[r][i], Op: torusOp,
						Size:         nic.HeaderBytes + torusBytes,
						VAddr:        torusTx,
						CacheTx:      true,
						DeliverVAddr: torusRx,
						DeliverBytes: torusBytes,
						Payload:      p.Local(),
					})
					p.Advance(pace)
				}
			})
		}
		return &machine{
			run: func() {
				if ss != nil {
					ss.Run()
				} else {
					k.Run()
				}
				net.Finish()
			},
			check: func() (outcome, error) {
				for i, p := range procs {
					if !p.Finished() {
						if ss != nil {
							ss.Drain()
						} else {
							k.Drain()
						}
						return outcome{}, fmt.Errorf("fabric-torus: generator %d never finished", i)
					}
				}
				all := &rpc.Latencies{}
				for i := range lats {
					all.Merge(lats[i])
					t.simCycles = max(t.simCycles, last[i])
				}
				if got := len(all.Samples); got != want {
					return outcome{}, fmt.Errorf("fabric-torus: %d of %d messages delivered", got, want)
				}
				if ss != nil {
					t.events = ss.Executed()
				} else {
					t.events = k.Executed()
				}
				t.net, t.lat = net.Stats, all
				return t.outcome(), nil
			},
		}, nil
	}
}

// expGap draws an exponential interarrival gap with the given mean.
func expGap(rng *sim.RNG, mean float64) sim.Time {
	d := -math.Log(1-rng.Float64()) * mean
	if d < 1 {
		d = 1
	}
	return sim.Time(d)
}

// arrival is one scheduled client request. The schedules are generated
// before the run, so the simulated clients only replay them and a pass
// spends no time drawing random numbers.
type arrival struct {
	at     sim.Time
	key    uint64
	get    bool
	tenant int
}

// serveShape is the node layout of both serving workloads: servers are
// nodes 0..servers-1, clients the rest.
type serveShape struct {
	servers, clients int
}

func serveCluster(shape serveShape, shards int) (*cluster.Cluster, error) {
	cfg := config.ForNIC(config.NICCNI)
	cfg.SimShards = shards
	return cluster.New(&cfg, shape.servers+shape.clients, nil)
}

// cyclesPerSecond is the simulated CPU clock.
var cyclesPerSecond = float64(config.ForNIC(config.NICCNI).CPUFreqMHz) * 1e6

func rpcInputs(seed uint64, tiny bool) builder {
	// 12k req/s per client is about 72% of the CNI's serving ceiling.
	shape, requests, rate := serveShape{2, 8}, 20000, 12000.0
	if tiny {
		shape, requests = serveShape{1, 2}, 50
	}
	rng := sim.NewRNG(seed)
	sched := make([][]sim.Time, shape.clients)
	for c := range sched {
		var at sim.Time
		for k := 0; k < requests; k++ {
			at += expGap(rng, cyclesPerSecond/rate)
			sched[c] = append(sched[c], at)
		}
	}
	return func(shards int) (*machine, error) {
		c, err := serveCluster(shape, shards)
		if err != nil {
			return nil, err
		}
		// The same serving body as workload.Run, which builds its own
		// cluster and so cannot time setup apart from the run.
		body := func(w *dsm.Worker) {
			p, id := w.Proc(), w.Node()
			node := c.RPC.Node(id)
			if id < shape.servers {
				clients := 0
				for i := 0; i < shape.clients; i++ {
					if i%shape.servers == id {
						clients++
					}
				}
				node.StartServer(rpc.ServerConfig{
					WorkQueue: 64, FreeBufs: 64, Service: 1000, RespBytes: 1024,
					Policy: rpc.Delay, Clients: clients,
				})
				node.Serve(p)
				return
			}
			ci := id - shape.servers
			conn := node.Dial(ci%shape.servers, 128, 0)
			for _, at := range sched[ci] {
				p.WaitUntil(at)
				conn.Fire(p, at)
			}
			node.WaitIdle(p)
			node.Done(p)
		}
		var res *cluster.Result
		return &machine{
			run: func() { res = c.Run(body) },
			check: func() (outcome, error) {
				s := res.RPC
				want := uint64(shape.clients * requests)
				if s.Issued != want || s.Issued != s.Completed+s.Rejected+s.Expired {
					return outcome{}, fmt.Errorf("serve-rpc: issued %d of %d, completed %d + rejected %d + expired %d",
						s.Issued, want, s.Completed, s.Rejected, s.Expired)
				}
				return clusterTally(c, res, &res.RPCLat).outcome(), nil
			},
		}, nil
	}
}

// kvTenants are the serving-kv QoS classes: an uncontracted
// interactive tenant above a batch tenant whose contract throttles
// part of its offered load.
var kvTenants = []tenant.Class{
	{ID: 0, Name: "interactive", Priority: 0},
	{ID: 1, Name: "batch", Priority: 1, Rate: 30000, Burst: 32},
}

func kvInputs(seed uint64, tiny bool) builder {
	shape, requests, rate := serveShape{2, 8}, 10000, 10000.0 // per tenant per client
	const keys, getFrac = 1024, 0.9
	if tiny {
		shape, requests = serveShape{1, 2}, 50
	}
	rng := sim.NewRNG(seed)
	zipf := workload.NewZipf(keys, 1.1)
	sched := make([][]arrival, shape.clients)
	for c := range sched {
		for tn := range kvTenants {
			var at sim.Time
			for k := 0; k < requests; k++ {
				at += expGap(rng, cyclesPerSecond/rate)
				sched[c] = append(sched[c], arrival{
					at: at, key: zipf.Next(rng), get: rng.Float64() < getFrac, tenant: tn,
				})
			}
		}
		// One merged open-loop stream per client; a tie keeps tenant order.
		sort.SliceStable(sched[c], func(i, j int) bool { return sched[c][i].at < sched[c][j].at })
	}
	return func(shards int) (*machine, error) {
		c, err := serveCluster(shape, shards)
		if err != nil {
			return nil, err
		}
		// The same serving body as workload.RunKV, for the reason given
		// in rpcInputs.
		body := func(w *dsm.Worker) {
			p, id := w.Proc(), w.Node()
			node := c.KV.Node(id)
			if id < shape.servers {
				node.StartServer(kv.ServerConfig{
					WorkQueue: 64, FreeBufs: 64, ServiceGet: 1000, ServiceSet: 1000, ValueBytes: 256,
					Policy: rpc.Delay, Clients: shape.clients, Tenants: kvTenants, Isolation: true,
				})
				for key := id; key < keys; key += shape.servers {
					node.Preload(uint64(key))
				}
				node.Serve(p)
				return
			}
			conns := make([]*kv.Conn, shape.servers)
			for i := range conns {
				conns[i] = node.Dial(i, 64, 0)
			}
			for _, a := range sched[id-shape.servers] {
				kind := kv.Set
				if a.get {
					kind = kv.Get
				}
				p.WaitUntil(a.at)
				conns[a.key%uint64(shape.servers)].Fire(p, a.at, kind, a.tenant, a.key)
			}
			node.WaitIdle(p)
			node.Done(p)
		}
		var res *cluster.Result
		return &machine{
			run: func() { res = c.Run(body) },
			check: func() (outcome, error) {
				s := res.KV
				want := uint64(shape.clients * requests * len(kvTenants))
				if s.Issued != want || s.Issued != s.Completed+s.Rejected+s.Throttled+s.Expired {
					return outcome{}, fmt.Errorf("serve-kv: issued %d of %d, completed %d + rejected %d + throttled %d + expired %d",
						s.Issued, want, s.Completed, s.Rejected, s.Throttled, s.Expired)
				}
				return clusterTally(c, res, &res.KVLat).outcome(), nil
			},
		}, nil
	}
}
