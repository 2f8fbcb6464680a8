// Command cnisim runs one benchmark application on the simulated
// cluster and prints the paper's metrics for it.
//
// Usage:
//
//	cnisim -app jacobi -size 256 -procs 8 -nic cni
//	cnisim -app water -size 216 -procs 8 -nic standard
//	cnisim -app jacobi -size 128 -procs 4 -nic osiris
//	cnisim -app cholesky -matrix bcsstk14 -procs 8 -pagesize 4096
//
// With -verify the result is checked against the sequential reference.
//
// -dsm selects the DSM ownership organization: the fixed-distribution
// central manager (the default) or the dynamic distributed manager
// with per-page probable-owner chains, which migrates page ownership
// to writers and rotates the synchronization managers:
//
//	cnisim -app cholesky -matrix small64 -procs 8 -dsm distributed
//
// -topo selects the fabric: the paper's single output-queued banyan
// switch (the default, capped at 32 nodes), a k-ary Clos/fat-tree, or
// a 3D torus; the multi-switch fabrics scale to 1024+ nodes and size
// their geometry automatically unless pinned with -closradix or
// -torusdims:
//
//	cnisim -app jacobi -size 256 -procs 128 -topo clos
//	cnisim -app jacobi -size 256 -procs 64 -topo torus -torusdims 4x4x4
//
// -shards N splits the simulation across N conservative-parallel
// kernel shards advancing in lock-stepped lookahead windows. Results
// are bit-identical at any shard count — only wall clock changes. Runs
// whose model needs zero-lookahead cross-node access (DSM page copies)
// clamp back to the single kernel and say so on stderr; -trace also
// forces the single kernel, since the protocol trace is one globally
// ordered stream:
//
//	cnisim -rpc -nic cni -shards 4
//
// To regenerate the paper's evaluation artifacts, use cmd/experiments
// (e.g. experiments -quick -only F14).
//
// With -rpc it runs the synthetic request-serving workload instead:
// open-loop Poisson clients (or closed-loop with -closed) drive server
// nodes through the RPC layer and the run reports sustained throughput
// plus exact latency percentiles:
//
//	cnisim -rpc -nic cni -rate 10000 -clients 4 -reqsize 128 -respsize 1024
//	cnisim -rpc -nic standard -rate 10000 -clients 4
//
// With -kv it runs the multi-tenant key-value serving workload:
// open-loop clients draw keys from a Zipf popularity law and drive
// GET/SET traffic at sharded servers; on the CNI, repeat GETs are
// answered by the board from responses pinned in the Message Cache
// (turn the cache off with -niccache=false to ablate). -tenants adds
// traffic classes (tenant i has priority i), -isolation switches on
// per-tenant device channels, token buckets and priority scheduling,
// and -contract caps each tenant above tenant 0 at a bucket rate:
//
//	cnisim -kv -nic cni -zipf 1.1 -rate 20000 -requests 500
//	cnisim -kv -nic cni -tenants 2 -isolation -contract 5000 -deadline 100000
//	cnisim -kv -nic osiris -zipf 1.3 -getfrac 0.95
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cni"
)

// shardNote annotates a report header with the requested shard count.
// The default single-kernel output stays byte-for-byte what it always
// was; the annotation appears only when -shards asked for the parallel
// driver (whose simulated results are identical anyway).
func shardNote(shards int) string {
	if shards <= 0 {
		return ""
	}
	return fmt.Sprintf(", %d kernel shard(s)", shards)
}

func main() {
	appName := flag.String("app", "jacobi", "jacobi | water | cholesky")
	size := flag.Int("size", 128, "grid side (jacobi) or molecule count (water)")
	iters := flag.Int("iters", 10, "iterations (jacobi) or steps (water)")
	matrix := flag.String("matrix", "bcsstk14", "bcsstk14 | bcsstk15 | small<N> (cholesky)")
	procs := flag.Int("procs", 8, "number of workstation nodes (32 max on -topo single)")
	nicName := flag.String("nic", "cni", "cni | osiris | standard")
	dsmName := flag.String("dsm", "", "DSM ownership: central | distributed (default central)")
	topoName := flag.String("topo", "", "fabric topology: single | clos | torus (default single)")
	closRadix := flag.Int("closradix", 0, "fat-tree switch radix, even >= 4 (0 = auto-size for -procs)")
	torusDims := flag.String("torusdims", "", "torus extents as XxYxZ, e.g. 4x4x4 (default auto-size)")
	pageSize := flag.Int("pagesize", 0, "shared page size in bytes, a power of two (default 2048)")
	cacheSize := flag.Int("cachesize", 0, "Message Cache size in bytes (default 32768)")
	unrestricted := flag.Bool("unrestricted-cell", false, "mythical ATM with unlimited cell size (Table 5)")
	verify := flag.Bool("verify", false, "check the result against the sequential reference")
	traceN := flag.Int("trace", 0, "print the first N protocol events")
	shards := flag.Int("shards", 0, "split the simulation across N parallel kernel shards, bit-identical at any count (0 = single kernel)")
	loss := flag.Float64("loss", 0, "cell loss probability per link (0 disables)")
	corrupt := flag.Float64("corrupt", 0, "cell corruption probability per link")
	dup := flag.Float64("dup", 0, "cell duplication probability per link")
	reorder := flag.Int("reorder", 0, "max cells a delivery may slip behind later traffic")
	faultSeed := flag.Uint64("faultseed", 1, "seed of the deterministic fault injector")
	rpcMode := flag.Bool("rpc", false, "run the synthetic request-serving workload instead")
	rate := flag.Float64("rate", 10000, "per-client offered load in req/s (-rpc open loop)")
	clients := flag.Int("clients", 4, "client nodes (-rpc mode)")
	servers := flag.Int("servers", 1, "server nodes (-rpc mode)")
	reqSize := flag.Int("reqsize", 128, "request bytes (-rpc mode)")
	respSize := flag.Int("respsize", 1024, "response bytes (-rpc mode)")
	requests := flag.Int("requests", 400, "requests per client (-rpc mode)")
	closed := flag.Bool("closed", false, "closed loop: blocking calls with -think instead of scheduled arrivals (-rpc mode)")
	think := flag.Int64("think", 0, "mean think time between closed-loop calls, cycles (-rpc mode)")
	fixed := flag.Bool("fixed", false, "fixed-rate arrivals/think times instead of Poisson (-rpc mode)")
	deadline := flag.Int64("deadline", 0, "per-request deadline in cycles, 0 = none (-rpc mode)")
	policy := flag.String("policy", "delay", "admission policy at exhaustion: shed | delay (-rpc mode)")
	seed := flag.Uint64("seed", 7, "traffic generator seed (-rpc mode)")
	kvMode := flag.Bool("kv", false, "run the multi-tenant key-value serving workload instead")
	tenants := flag.Int("tenants", 1, "tenant count; tenant i has priority i (-kv mode)")
	zipf := flag.Float64("zipf", 1.1, "Zipf key-popularity skew (-kv mode)")
	keys := flag.Int("keys", 1024, "key-space size (-kv mode)")
	getFrac := flag.Float64("getfrac", 0.9, "GET fraction of each tenant's stream (-kv mode)")
	nicCache := flag.Bool("niccache", true, "NIC-resident response cache, CNI only (-kv mode)")
	isolation := flag.Bool("isolation", false, "per-tenant channels, token buckets and priority scheduling (-kv mode)")
	contract := flag.Float64("contract", 0, "token-bucket rate contract in req/s for tenants above tenant 0, 0 = none (-kv mode)")
	flag.Parse()

	if *shards < 0 {
		fmt.Fprintf(os.Stderr, "cnisim: -shards must be >= 0\n")
		os.Exit(2)
	}
	if *traceN > 0 && *shards != 0 {
		// The protocol trace is one globally ordered event stream; the
		// sharded driver has no single kernel clock to order it on.
		fmt.Fprintln(os.Stderr, "cnisim: -trace needs the single ordered kernel; running with -shards 0")
		*shards = 0
	}

	kind, ok := cni.NICKindByName(*nicName)
	if !ok {
		fmt.Fprintf(os.Stderr, "cnisim: unknown -nic %q (%s)\n",
			*nicName, strings.Join(cni.NICKindNames(), " | "))
		os.Exit(2)
	}
	cfg := cni.ConfigFor(kind)
	if *dsmName != "" {
		cfg.DSMOwnership = *dsmName
	}
	if *pageSize > 0 {
		cfg.PageBytes = *pageSize
	}
	if *cacheSize > 0 {
		cfg.MessageCacheByte = *cacheSize
	}
	cfg.UnrestrictedCell = *unrestricted
	if *topoName != "" {
		cfg.Topology = *topoName
	}
	cfg.ClosRadix = *closRadix
	if *torusDims != "" {
		var d [3]int
		if _, err := fmt.Sscanf(*torusDims, "%dx%dx%d", &d[0], &d[1], &d[2]); err != nil {
			fmt.Fprintf(os.Stderr, "cnisim: bad -torusdims %q (want XxYxZ, e.g. 4x4x4)\n", *torusDims)
			os.Exit(2)
		}
		cfg.TorusDims = d
	}
	if !*nicCache {
		cfg.NICResponseCache = false
	}
	cfg.CellLossRate = *loss
	cfg.CellCorruptRate = *corrupt
	cfg.CellDupRate = *dup
	cfg.ReorderWindow = *reorder
	cfg.FaultSeed = *faultSeed
	cfg.SimShards = *shards
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "cnisim: bad configuration: %v\n", err)
		os.Exit(2)
	}

	if *kvMode {
		spec := cni.KVSpec{
			Servers:    *servers,
			Clients:    *clients,
			Seed:       *seed,
			Keys:       *keys,
			ZipfS:      *zipf,
			SetBytes:   *reqSize,
			ValueBytes: *respSize,
			Deadline:   cni.Time(*deadline),
			Isolation:  *isolation,
		}
		for i := 0; i < *tenants; i++ {
			t := cni.KVTenant{
				Class:    cni.TenantClass{Name: fmt.Sprintf("t%d", i), Priority: i},
				Rate:     *rate,
				Requests: *requests,
				GetFrac:  *getFrac,
			}
			if i > 0 && *contract > 0 {
				t.Class.Rate = *contract
				t.Class.Burst = 16
			}
			spec.Tenants = append(spec.Tenants, t)
		}
		switch *policy {
		case "shed":
			spec.Policy = cni.RPCShed
		case "delay":
			spec.Policy = cni.RPCDelay
		default:
			fmt.Fprintf(os.Stderr, "cnisim: unknown -policy %q (shed | delay)\n", *policy)
			os.Exit(2)
		}
		if err := spec.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "cnisim: %v\n", err)
			os.Exit(2)
		}
		cache := "off"
		if cfg.NICResponseCache {
			cache = "on"
		}
		qos := "shared FIFO"
		if *isolation {
			qos = "isolated tenants"
		}
		rep := cni.RunKV(&cfg, spec)
		fmt.Printf("kv serving: %d server(s), %d client(s) x %s interface, %d tenant(s), zipf s=%g, nic cache %s, %s%s\n",
			*servers, *clients, *nicName, *tenants, *zipf, cache, qos, shardNote(*shards))
		fmt.Printf("  %s\n", strings.ReplaceAll(rep.String(), "\n", "\n  "))
		return
	}

	if *rpcMode {
		spec := cni.RPCSpec{
			Servers:   *servers,
			Clients:   *clients,
			Seed:      *seed,
			Open:      !*closed,
			Poisson:   !*fixed,
			Rate:      *rate,
			Think:     cni.Time(*think),
			Requests:  *requests,
			ReqBytes:  *reqSize,
			RespBytes: *respSize,
			Deadline:  cni.Time(*deadline),
		}
		switch *policy {
		case "shed":
			spec.Policy = cni.RPCShed
		case "delay":
			spec.Policy = cni.RPCDelay
		default:
			fmt.Fprintf(os.Stderr, "cnisim: unknown -policy %q (shed | delay)\n", *policy)
			os.Exit(2)
		}
		if err := spec.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "cnisim: %v\n", err)
			os.Exit(2)
		}
		loop := "open loop"
		if *closed {
			loop = "closed loop"
		}
		rep := cni.RunRPC(&cfg, spec)
		fmt.Printf("rpc serving: %d server(s), %d client(s) x %s interface, %s%s\n",
			*servers, *clients, *nicName, loop, shardNote(*shards))
		fmt.Printf("  %s\n", strings.ReplaceAll(rep.String(), "\n", "\n  "))
		return
	}

	var app cni.App
	switch *appName {
	case "jacobi":
		app = cni.NewJacobi(*size, *iters)
	case "water":
		app = cni.NewWater(*size, *iters)
	case "cholesky":
		var gen cni.MatrixGen
		switch {
		case *matrix == "bcsstk14":
			gen = cni.BCSSTK14()
		case *matrix == "bcsstk15":
			gen = cni.BCSSTK15()
		default:
			var n int
			if _, err := fmt.Sscanf(*matrix, "small%d", &n); err != nil || n < 8 {
				fmt.Fprintf(os.Stderr, "cnisim: unknown -matrix %q\n", *matrix)
				os.Exit(2)
			}
			gen = cni.SmallMatrix(n)
		}
		app = cni.NewCholesky(gen)
	default:
		fmt.Fprintf(os.Stderr, "cnisim: unknown -app %q\n", *appName)
		os.Exit(2)
	}

	c, err := cni.NewCluster(&cfg, *procs, app.Setup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cnisim: %v\n", err)
		os.Exit(2)
	}
	if *shards > 0 {
		if c.ShardClamp != "" {
			fmt.Fprintf(os.Stderr, "cnisim: -shards %d clamped to the single kernel: %s\n",
				*shards, c.ShardClamp)
		} else {
			fmt.Fprintf(os.Stderr, "cnisim: simulating on %d parallel kernel shard(s)\n", c.Shards())
		}
	}
	var tl *cni.TraceLog
	if *traceN > 0 {
		tl = c.EnableTrace(*traceN)
	}
	app.Init(c)
	res := c.Run(app.Body)
	cyclesToMS := func(cy int64) float64 { return float64(cy) / float64(cfg.CPUFreqMHz) / 1000 }
	fmt.Printf("%s on %d x %s interface\n", app.Name(), *procs, *nicName)
	fmt.Printf("  wall time          %12d cycles (%.3f ms at %d MHz)\n",
		res.Time, cyclesToMS(int64(res.Time)), cfg.CPUFreqMHz)
	fmt.Printf("  synch overhead     %12d cycles (per-node average)\n", res.AvgOverhead)
	fmt.Printf("  synch delay        %12d cycles\n", res.AvgDelay)
	fmt.Printf("  computation        %12d cycles\n", res.AvgComputation)
	fmt.Printf("  network cache hit  %11.2f%%\n", res.HitRatio)
	fmt.Printf("  messages           %12d   data %d B   wire %d B   cells %d\n",
		res.Net.Messages, res.Net.DataBytes, res.Net.WireBytes, res.Net.Cells)
	if cfg.TopologyOrDefault() != cni.TopoSingle {
		fmt.Printf("  fabric             %s\n", c.Net.Topology().Describe())
		fmt.Printf("  routing            %12d switch hops   port waits %d cycles   link waits %d cycles\n",
			res.Net.HopCount, res.Net.PortWaits, res.Net.LinkWaits)
	}
	if res.Coll.Episodes > 0 {
		fmt.Printf("  collectives        %12d episodes   board-combined %d   host-handled %d   mean %.0f cycles\n",
			res.Coll.Episodes, res.Coll.BoardCombined, res.Coll.HostHandled, res.Coll.Latency.Mean())
	}
	ownWhere := "host interrupt path"
	if c.Nodes[0].Board.HandlersOnBoard() {
		ownWhere = "board-resident AIHs"
	}
	fmt.Printf("  dsm %-11s    %12d faults   %d invalidations   manager msgs %d (hottest node %d: %d)   %s\n",
		cfg.DSMOwnershipOrDefault(), res.DSM.PageFaults, res.DSM.Invalidates,
		res.DSM.OwnerMsgs, res.MaxManagerNode, res.MaxManagerMsgs, ownWhere)
	if cfg.DSMOwnershipOrDefault() == cni.DSMDistributed {
		fmt.Printf("  ownership chains   %12d forwards   %d migrations   mean chain %.2f hops\n",
			res.DSM.Forwards, res.DSM.Migrations, res.DSM.Chain.Mean())
	}
	if cfg.FaultsEnabled() {
		ft := res.Net.Faults
		fmt.Printf("  faults injected    %12d dropped   %d corrupted   %d duped   %d delayed (seed %d)\n",
			ft.CellsDropped, ft.CellsCorrupted, ft.CellsDuped, ft.PacketsDelayed, cfg.FaultSeed)
		fmt.Printf("  reliability        %12d retransmits   %d timeouts   %d naks   %d acks   %d dup-discards\n",
			res.Rel.Retransmits, res.Rel.Timeouts, res.Rel.NaksSent, res.Rel.AcksSent, res.Rel.DupDiscards)
		fmt.Printf("  retained           %12d B peak on board   window peak %d   retransmit cost %d cycles\n",
			res.Rel.RetainedBytes, res.Rel.MaxWindow, res.Rel.RetxCycles)
	}
	if *verify {
		if err := app.Verify(c); err != nil {
			fmt.Fprintf(os.Stderr, "cnisim: VERIFY FAILED: %v\n", err)
			os.Exit(1)
		}
		fmt.Println("  verify             OK (matches sequential reference)")
	}
	if tl != nil {
		kept, dropped := len(tl.Events()), tl.Dropped()
		fmt.Printf("\nprotocol trace (%d of %d events, %d dropped):\n%s",
			kept, kept+dropped, dropped, tl.String())
	}
}
