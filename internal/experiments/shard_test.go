package experiments

import (
	"context"
	"reflect"
	"testing"

	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
	"cni/internal/rpc"
	"cni/internal/sim"
	"cni/internal/workload"
)

// TestShardSuiteParity is the golden parity gate of the sharded kernel:
// the full suite, rendered with every simulation point split across
// conservative-parallel shards, must be byte-identical to the
// one-shard run at every shard count. Under -short
// (CI's -race leg) one shard count covers the full suite; the long run
// sweeps 1, 2 and 8.
func TestShardSuiteParity(t *testing.T) {
	specs := All()
	base := make([]string, len(specs))
	for i, s := range specs {
		base[i] = renderSequential(s, parityOpts)
	}
	counts := []int{1, 2, 8}
	if testing.Short() {
		counts = []int{4}
	}
	for _, shards := range counts {
		o := parityOpts
		o.Shards = shards
		o.Jobs = 2
		outs, err := RunSuite(context.Background(), specs, o)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		for i, s := range specs {
			if outs[i] != base[i] {
				t.Errorf("%s at shards=%d: output differs from one shard\n--- one shard ---\n%s\n--- shards=%d ---\n%s",
					s.ID, shards, base[i], shards, outs[i])
			}
		}
	}
}

// TestShardClusterClampAndSpread pins the cluster layer's sharding
// decision: a message-carried serving run spreads its nodes across the
// requested shards, while a DSM run (shared pages, zero-lookahead page
// copies) clamps back to one shard and says why.
func TestShardClusterClampAndSpread(t *testing.T) {
	cfg := config.ForNIC(config.NICCNI)
	cfg.SimShards = 4
	c, err := cluster.New(&cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 4 || c.SS.Shards() != 4 || c.ShardClamp != "" {
		t.Fatalf("serving cluster: shards=%d set=%d clamp=%q, want 4 shards unclamped",
			c.Shards(), c.SS.Shards(), c.ShardClamp)
	}

	dsmCfg := config.ForNIC(config.NICCNI)
	dsmCfg.SimShards = 4
	d, err := cluster.New(&dsmCfg, 8, func(g *dsm.Globals) { g.Alloc(1024) })
	if err != nil {
		t.Fatal(err)
	}
	if d.Shards() != 1 || d.SS.Shards() != 1 || d.ShardClamp == "" {
		t.Fatalf("DSM cluster: shards=%d set=%d clamp=%q, want one shard with a recorded reason",
			d.Shards(), d.SS.Shards(), d.ShardClamp)
	}
}

// TestShardWorkloadParity runs the serving workloads — the cluster
// path with live cross-shard request/response traffic, admission
// control and exact latency samples — at shards 0, 1, 2 and 5, and
// requires identical per-node statistics, fabric statistics and
// percentiles. The full-size cases are the serve-rpc and serve-kv
// shapes of the benchmark at sizes where same-instant work is common:
// that is where an order that depended on the shard count would show.
func TestShardWorkloadParity(t *testing.T) {
	type outcome struct {
		res           *cluster.Result
		p50, p99, max sim.Time
	}
	rpcRun := func(spec workload.Spec) func(*config.Config) outcome {
		return func(cfg *config.Config) outcome {
			rep := workload.Run(cfg, spec)
			return outcome{rep.Res, rep.P50, rep.P99, rep.P999}
		}
	}
	kvRun := func(spec workload.KVSpec) func(*config.Config) outcome {
		return func(cfg *config.Config) outcome {
			rep := workload.RunKV(cfg, spec)
			return outcome{rep.Res, rep.P50, rep.P99, rep.P999}
		}
	}
	kvTenant := workload.KVTenant{Rate: 10000, Requests: 500, GetFrac: 0.9}
	kvTiny := workload.KVTenant{Rate: 10000, Requests: 50, GetFrac: 0.9}
	// windows and barriers are the window driver's counts, which
	// depend only on the simulated schedule: they are pinned at every
	// shard count, so a change that narrows the windows, or runs
	// barriers with nothing to do, fails here.
	cases := []struct {
		name              string
		short             bool // small enough for -short
		windows, barriers uint64
		run               func(*config.Config) outcome
	}{
		{"rpc-120", true, 2364, 896, rpcRun(workload.Spec{
			Servers: 1, Clients: 4, Seed: 7,
			Open: true, Poisson: true, Rate: 10000, Requests: 120,
			ReqBytes: 128, RespBytes: 1024, Service: 1000,
			WorkQueue: 64, FreeBufs: 64,
		})},
		{"kv-50", true, 1009, 364, kvRun(workload.KVSpec{
			Servers: 1, Clients: 2, Seed: 1, Keys: 1024, ZipfS: 1.1,
			Tenants: []workload.KVTenant{kvTiny, kvTiny},
		})},
		{"serve-rpc-2000", false, 55458, 26873, rpcRun(workload.Spec{
			Servers: 2, Clients: 8, Seed: 1,
			Open: true, Poisson: true, Rate: 12000, Requests: 2000,
			ReqBytes: 128, RespBytes: 1024, Service: 1000,
			WorkQueue: 64, FreeBufs: 64, Policy: rpc.Delay,
		})},
		{"serve-kv-500", false, 19981, 11778, kvRun(workload.KVSpec{
			Servers: 2, Clients: 8, Seed: 1, Keys: 1024, ZipfS: 1.1,
			Tenants: []workload.KVTenant{kvTenant, kvTenant},
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && !c.short {
				t.Skip("full-size serving run")
			}
			var want outcome
			for _, shards := range []int{0, 1, 2, 5} {
				cfg := config.ForNIC(config.NICCNI)
				cfg.SimShards = shards
				got := c.run(&cfg)
				if w, b := got.res.Windows, got.res.Barriers; w != c.windows || b != c.barriers {
					t.Errorf("shards=%d: %d windows and %d barriers, want %d and %d",
						shards, w, b, c.windows, c.barriers)
				}
				if shards == 0 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got.res.PerNode, want.res.PerNode) {
					t.Errorf("shards=%d: per-node statistics differ from shards 0", shards)
				}
				if got.res.Net != want.res.Net {
					t.Errorf("shards=%d: fabric %+v, shards 0 %+v", shards, got.res.Net, want.res.Net)
				}
				if got.p50 != want.p50 || got.p99 != want.p99 || got.max != want.max {
					t.Errorf("shards=%d: p50/p99/p99.9 %d/%d/%d, shards 0 %d/%d/%d",
						shards, got.p50, got.p99, got.max, want.p50, want.p99, want.max)
				}
			}
		})
	}
}
