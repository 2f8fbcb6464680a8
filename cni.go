// Package cni is a from-scratch reproduction of "CNI: A
// High-Performance Network Interface for Workstation Clusters"
// (Sarkar & Bailey, HPDC 1996) as a simulation library: the CNI
// network adaptor board (Message Cache, Application Device Channels,
// PATHFINDER packet classification, Application Interrupt Handlers),
// the baseline standard interface, the ATM interconnect, the
// lazy-release-consistency DSM that runs on top, the paper's three
// benchmark applications, and generators for every table and figure of
// its evaluation.
//
// The building blocks live in internal packages; this package is the
// public surface. A minimal session:
//
//	cfg := cni.DefaultConfig()                       // Table 1 machine, CNI board
//	app := cni.NewJacobi(256, 10)                    // a workload
//	c, res, err := cni.RunApp(&cfg, 8, app)          // 8-node cluster
//	if err != nil { ... }                            // bad config / node count
//	fmt.Println(res.Time, res.HitRatio)              // cycles, MC hit %
//	_ = app.Verify(c)                                // against sequential reference
//
// or, to regenerate the paper's artifacts — in parallel across
// GOMAXPROCS workers, with bit-identical output to a sequential run:
//
//	outs, err := cni.RunExperimentSuite(ctx, cni.Experiments(), cni.ExpOptions{Quick: true})
package cni

import (
	"context"

	"cni/internal/adc"
	"cni/internal/apps"
	"cni/internal/apps/spmat"
	"cni/internal/cluster"
	"cni/internal/collective"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/experiments"
	"cni/internal/kv"
	"cni/internal/msgpass"
	"cni/internal/pathfinder"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/tenant"
	"cni/internal/trace"
	"cni/internal/workload"
)

// Time is the simulation clock: CPU cycles at Config.CPUFreqMHz.
type Time = sim.Time

// Config is the full machine description (Table 1 of the paper plus
// the documented calibration constants).
type Config = config.Config

// NICKind selects the network interface model.
type NICKind = config.NICKind

// The interface models: the two the paper compares plus the
// OSIRIS-class baseline the CNI derives from.
const (
	NICStandard = config.NICStandard
	NICCNI      = config.NICCNI
	NICOsiris   = config.NICOsiris
)

// NICKinds lists every interface model in NICKind order; NICKindNames
// lists their command-line names ("standard", "cni", "osiris");
// NICKindByName resolves such a name back to its kind.
func NICKinds() []NICKind                       { return config.Kinds() }
func NICKindNames() []string                    { return config.KindNames() }
func NICKindByName(name string) (NICKind, bool) { return config.KindByName(name) }

// ConfigFor returns the default configuration for the given interface.
// It is the single source of truth for configuration defaults: every
// interface shares every Table 1 parameter and calibration constant
// and differs only in the NIC selector and the five board-feature
// knobs only the CNI has — ReceiveCaching, TransmitCaching,
// ConsistencySnooping (the Message Cache and its bus snooper),
// NICResponseCache (the board-served KV responses) and NICCollectives
// (the board-resident collective engine).
func ConfigFor(kind NICKind) Config { return config.ForNIC(kind) }

// DefaultConfig returns the Table 1 machine with the CNI board:
// ConfigFor(NICCNI).
func DefaultConfig() Config { return config.ForNIC(NICCNI) }

// StandardConfig returns the Table 1 machine with the baseline
// standard interface: ConfigFor(NICStandard).
func StandardConfig() Config { return config.ForNIC(NICStandard) }

// The registered fabric topologies (Config.Topology): the paper's
// single output-queued banyan switch, a k-ary Clos/fat-tree, and a 3D
// torus. The multi-switch fabrics lift the 32-port scaling ceiling.
const (
	TopoSingle = config.TopoSingle
	TopoClos   = config.TopoClos
	TopoTorus  = config.TopoTorus
)

// TopoNames lists the command-line names of the registered topologies.
func TopoNames() []string { return config.TopoNames() }

// The registered DSM ownership organizations (Config.DSMOwnership):
// the fixed-distribution central manager the DSM has always used, and
// the dynamic distributed manager — per-page probable-owner chains
// with request forwarding and ownership migration on write faults, in
// the style of Li & Hudak's IVY — which spreads the manager-role
// message load off the static homes and the node-0 synchronization
// manager.
const (
	DSMCentral     = config.DSMCentral
	DSMDistributed = config.DSMDistributed
)

// DSMOwnershipNames lists the command-line names of the registered
// ownership organizations ("central", "distributed").
func DSMOwnershipNames() []string { return config.DSMOwnershipNames() }

// ChainHist is the probable-owner forwarding-chain length histogram in
// Result.DSM: bucket i counts fetches forwarded i times.
type ChainHist = dsm.ChainHist

// Cluster is a simulated workstation cluster; Result is the outcome of
// one run (wall time, overhead breakdown, hit ratio, traffic).
type (
	Cluster = cluster.Cluster
	Result  = cluster.Result
	Setup   = cluster.Setup
	AppBody = cluster.App
)

// Worker is the application-facing DSM interface (shared memory
// accessors, locks, barriers, bag of tasks); Globals describes the
// shared region.
type (
	Worker  = dsm.Worker
	Globals = dsm.Globals
)

// TraceLog is the bounded protocol-event log returned by
// Cluster.EnableTrace.
type TraceLog = trace.Log

// NewCluster builds an n-node cluster. setup allocates the shared
// region; pass nil for a cluster without DSM data. It returns an error
// when cfg is invalid or n exceeds what the selected topology (see
// Config.Topology) can address.
func NewCluster(cfg *Config, n int, setup Setup) (*Cluster, error) {
	return cluster.New(cfg, n, setup)
}

// App is one benchmark application (workload + verification).
type App = apps.App

// MatrixGen describes a synthetic sparse SPD matrix for Cholesky.
type MatrixGen = spmat.Gen

// NewJacobi returns the coarse-grained grid relaxation workload.
func NewJacobi(side, iters int) App { return apps.NewJacobi(side, iters) }

// NewWater returns the medium-grained molecular dynamics workload.
func NewWater(molecules, steps int) App { return apps.NewWater(molecules, steps) }

// NewCholesky returns the fine-grained sparse factorization workload.
func NewCholesky(gen MatrixGen) App { return apps.NewCholesky(gen) }

// BCSSTK14 and BCSSTK15 are the synthetic stand-ins for the paper's
// Harwell-Boeing inputs; SmallMatrix scales down for quick runs.
func BCSSTK14() MatrixGen         { return spmat.BCSSTK14() }
func BCSSTK15() MatrixGen         { return spmat.BCSSTK15() }
func SmallMatrix(n int) MatrixGen { return spmat.Small(n) }

// RunApp executes app on an n-node cluster described by cfg. An
// invalid configuration or a node count the selected topology cannot
// address is an error (the same conditions NewCluster reports).
func RunApp(cfg *Config, n int, app App) (*Cluster, *Result, error) {
	return apps.Execute(cfg, n, app)
}

// --- evaluation artifacts ---

// ExpOptions scales the experiment suite and configures the parallel
// harness (Jobs worker count, Progress callback); Figure, ExpTable and
// ExpSpec mirror the paper's artifacts. ExpProgress is one progress
// event of a running suite and ExpRunner the shared worker pool +
// memoization table experiments execute on.
type (
	ExpOptions  = experiments.Options
	ExpProgress = experiments.Progress
	ExpRunner   = experiments.Runner
	Figure      = experiments.Figure
	ExpTable    = experiments.Table
	ExpSpec     = experiments.Spec
	Series      = experiments.Series
)

// Experiments lists every table and figure of the paper's evaluation,
// in paper order.
func Experiments() []ExpSpec { return experiments.All() }

// FindExperiment returns the artifact with the given id ("T1".."T5",
// "F2".."F14", "FB1", "FC1", "FR1", "FS1", "FS2", "FT1", "FD1").
func FindExperiment(id string) (ExpSpec, bool) { return experiments.Find(id) }

// RunExperimentCtx executes one artifact with context cancellation and
// renders it as text. The artifact's independent simulation points fan
// across o.Jobs workers (GOMAXPROCS when 0) and identical points run
// once; the rendered output is bit-identical at every worker count.
// Cancellation aborts outstanding points and returns ctx's error; a
// panic inside the model surfaces as an error instead of crashing.
func RunExperimentCtx(ctx context.Context, s ExpSpec, o ExpOptions) (string, error) {
	return experiments.RunSpec(ctx, s, o)
}

// RunExperimentSuite executes every given artifact on one shared
// worker pool: each artifact's points run concurrently and points
// shared between artifacts (FR1's lossless baselines, F13's
// default-cache point, ...) execute once. Outputs return in spec
// order, bit-identical to running each spec alone. The first error
// (including ctx cancellation) is returned alongside whatever outputs
// completed.
func RunExperimentSuite(ctx context.Context, specs []ExpSpec, o ExpOptions) ([]string, error) {
	return experiments.RunSuite(ctx, specs, o)
}

// NewExperimentRunner starts a shared experiment worker pool for
// callers that want to stream artifacts as they finish (see
// cmd/experiments); most callers want RunExperimentSuite. Close it
// when done.
func NewExperimentRunner(ctx context.Context, o ExpOptions) *ExpRunner {
	return experiments.NewRunner(ctx, o)
}

// --- microbenchmarks ---

// Metric selects what a Probe measures; Probe describes one
// microbenchmark measurement for Measure.
type (
	Metric = experiments.Metric
	Probe  = experiments.Probe
)

// The metrics Measure accepts.
const (
	MetricLatency    = experiments.MetricLatency    // app-to-app latency, ns
	MetricBandwidth  = experiments.MetricBandwidth  // streaming bandwidth, MB/s
	MetricCollective = experiments.MetricCollective // per-episode collective latency, ns
)

// Measure runs one microbenchmark probe against the given interface
// and reports the measured value in the metric's unit (nanoseconds for
// MetricLatency and MetricCollective, MB/s for MetricBandwidth):
//
//	lat, _ := cni.Measure(cni.NICCNI, cni.Probe{Metric: cni.MetricLatency, Size: 4096})
//	bw, _  := cni.Measure(cni.NICCNI, cni.Probe{Metric: cni.MetricBandwidth, Size: 256})
//	bar, _ := cni.Measure(cni.NICCNI, cni.Probe{Metric: cni.MetricCollective, Nodes: 8, Op: "barrier"})
//
// Probe.Tweak, if non-nil, adjusts the configuration before the run
// (ablations: disable transmit caching, force interrupts, software
// classification, fault injection, ...).
func Measure(kind NICKind, p Probe) (float64, error) {
	return experiments.Measure(kind, p)
}

// LatencyReduction reports the CNI's percentage latency reduction over
// the standard interface at the given message size (the paper's
// headline is ~33% at a 4 KB page).
func LatencyReduction(size int) float64 { return experiments.LatencyReduction(size) }

// --- board-level building blocks ---
//
// The pieces below expose the CNI board's mechanisms directly for
// programs that want to use the interface without the DSM: PATHFINDER
// patterns and Application Device Channels.

// Pattern is a PATHFINDER classification pattern: an ordered
// conjunction of (offset, mask, value) field comparisons; PatternField
// is one comparison and PatternValue the routing target of a match.
type (
	Pattern      = pathfinder.Pattern
	PatternField = pathfinder.Field
	PatternValue = pathfinder.Value
)

// NewClassifier returns an empty PATHFINDER instance.
func NewClassifier() *pathfinder.Classifier { return pathfinder.New() }

// Channel is an Application Device Channel (the transmit/receive/free
// queue triplet); Descriptor names one buffer in a queue, and Region a
// kernel-registered window the channel may address.
type (
	Channel    = adc.Channel
	Descriptor = adc.Descriptor
	Region     = adc.Region
)

// NewChannelManager returns a board-side channel table allowing up to
// maxOpen channels with queueCap-entry queues.
func NewChannelManager(maxOpen, queueCap int) *adc.Manager {
	return adc.NewManager(maxOpen, queueCap)
}

// --- message passing ---

// Fabric is a message-passing cluster (the paper's "message passing
// paradigm" on the same boards and interconnect); Endpoint is one
// node's interface — tagged send/receive, Active Messages that run on
// the CNI board, and message-built collectives. MPPacket is a matched
// message and AMContext the handler-side reply path.
type (
	Fabric    = msgpass.Fabric
	Endpoint  = msgpass.Endpoint
	MPPacket  = msgpass.Packet
	AMContext = msgpass.AMContext
	AMHandler = msgpass.AMHandler
)

// NewFabric builds an n-node message-passing cluster. It returns an
// error when cfg is invalid or n exceeds what the selected topology
// can address.
func NewFabric(cfg *Config, n int) (*Fabric, error) { return msgpass.NewFabric(cfg, n) }

// --- collectives ---

// ReduceOp is the combining operator of the collective engine's reduce
// and all-reduce (a fixed enumeration — the combining runs in board
// firmware on the CNI, which cannot be shipped host closures);
// CollStats are one node's collective-engine counters and CollHist the
// log2 episode-latency histogram inside them.
type (
	ReduceOp  = collective.ReduceOp
	CollStats = collective.Stats
	CollHist  = rpc.Hist
)

// The collective combining operators.
const (
	ReduceSum  = collective.OpSum
	ReduceProd = collective.OpProd
	ReduceMin  = collective.OpMin
	ReduceMax  = collective.OpMax
)

// --- request serving ---

// RPCSpec describes one synthetic request-serving run: server and
// client node counts, open-loop (Poisson or fixed-rate arrivals) or
// closed-loop (think time) traffic, request/response sizes, per-request
// deadlines and the server's admission policy. RPCReport is the
// outcome — sustained throughput plus exact latency percentiles.
// RPCStats are the aggregate RPC counters and RPCLatencies the exact
// latency samples behind the percentiles.
type (
	RPCSpec      = workload.Spec
	RPCReport    = workload.Report
	RPCStats     = rpc.Stats
	RPCLatencies = rpc.Latencies
)

// RPCPolicy selects what a server does when admission control trips:
// shed the request immediately or park it until buffers free up.
type RPCPolicy = rpc.Policy

const (
	RPCShed  = rpc.Shed
	RPCDelay = rpc.Delay
)

// RunRPC executes one synthetic serving run on a fresh
// Servers+Clients-node cluster under cfg. The run is a pure function
// of (cfg, spec): bit-identical latency histograms on every execution.
//
//	cfg := cni.DefaultConfig()
//	rep := cni.RunRPC(&cfg, cni.RPCSpec{
//		Clients: 4, Open: true, Poisson: true, Rate: 10000,
//		Requests: 300, ReqBytes: 128, RespBytes: 1024,
//	})
//	fmt.Println(rep.Sustained, rep.P99)
func RunRPC(cfg *Config, s RPCSpec) *RPCReport { return workload.Run(cfg, s) }

// --- key-value serving ---

// KVSpec describes one multi-tenant key-value serving run over the
// ADC transport: servers pre-populated with a sharded key space (key
// mod Servers), clients replaying aggregated open-loop Poisson arrival
// streams with Zipf key popularity, and per-tenant QoS contracts.
// KVTenant is one tenant's traffic and contract; KVReport the outcome,
// including the GET latency split between host-served responses and
// GETs answered by the CNI's NIC-resident response cache. KVStats are
// the aggregate client/server/cache counters and TenantClass/
// TenantStats the per-tenant contract and accounting.
type (
	KVSpec      = workload.KVSpec
	KVTenant    = workload.KVTenant
	KVReport    = workload.KVReport
	KVStats     = kv.Stats
	KVOutcome   = kv.Outcome
	TenantClass = tenant.Class
	TenantStats = tenant.Stats
)

// The KV request outcomes.
const (
	KVOK        = kv.OK
	KVNotFound  = kv.NotFound
	KVRejected  = kv.Rejected
	KVThrottled = kv.Throttled
	KVExpired   = kv.Expired
)

// RunKV executes one multi-tenant KV serving run on a fresh
// Servers+Clients-node cluster under cfg. Whether the serving boards
// keep a NIC-resident response cache is the config's business
// (Config.NICResponseCache, CNI only); the offered workload is
// identical either way. The run is a pure function of (cfg, spec).
//
//	cfg := cni.DefaultConfig()
//	rep := cni.RunKV(&cfg, cni.KVSpec{
//		Servers: 1, Clients: 2, ZipfS: 1.1,
//		Tenants: []cni.KVTenant{
//			{Class: cni.TenantClass{Priority: 0}, Rate: 4000, Requests: 200, GetFrac: 1},
//			{Class: cni.TenantClass{Priority: 1, Rate: 5000, Burst: 16}, Rate: 40000, Requests: 1000, GetFrac: 0.5},
//		},
//		Isolation: true,
//	})
//	fmt.Println(rep.P99, rep.HitRatio)
func RunKV(cfg *Config, s KVSpec) *KVReport { return workload.RunKV(cfg, s) }
