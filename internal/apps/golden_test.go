package apps

import (
	"testing"

	"cni/internal/apps/spmat"
	"cni/internal/config"
	"cni/internal/memsys"
)

// TestCentralOwnershipGoldenTimes pins the default (central-ownership)
// DSM to the exact wall times it produced before the distributed
// organization existed. The distributed code paths are gated on
// Config.DSMOwnership, so the default must stay bit-identical: any
// drift here means the gate leaks into the central protocol. The
// Cholesky rows also guard that its host-side position lookups and the
// DSM's twin reuse move no simulated cycle.
func TestCentralOwnershipGoldenTimes(t *testing.T) {
	cases := []struct {
		kind  config.NICKind
		mk    func() App
		procs int
		want  int64
	}{
		{config.NICCNI, func() App { return NewJacobi(64, 4) }, 8, 461860},
		{config.NICOsiris, func() App { return NewJacobi(64, 4) }, 8, 731003},
		{config.NICStandard, func() App { return NewJacobi(64, 4) }, 8, 848194},
		{config.NICCNI, func() App { return NewWater(16, 2) }, 4, 421183},
		{config.NICOsiris, func() App { return NewWater(16, 2) }, 4, 657217},
		{config.NICStandard, func() App { return NewWater(16, 2) }, 4, 879269},
		{config.NICCNI, func() App { return NewCholesky(spmat.Small(96)) }, 4, 3982232},
		{config.NICOsiris, func() App { return NewCholesky(spmat.Small(96)) }, 4, 7443068},
		{config.NICStandard, func() App { return NewCholesky(spmat.Small(96)) }, 4, 9224311},
	}
	for _, tc := range cases {
		app := tc.mk()
		cfg := config.ForNIC(tc.kind)
		_, res := MustExecute(&cfg, tc.procs, app)
		if int64(res.Time) != tc.want {
			t.Errorf("%s on %d x %v: wall time %d, want golden %d",
				app.Name(), tc.procs, tc.kind, res.Time, tc.want)
		}
	}
}

// TestAppsDistributedOwnership runs each benchmark under distributed
// ownership on every interface and verifies against the sequential
// reference: the ownership organization must never change what the
// program computes.
func TestAppsDistributedOwnership(t *testing.T) {
	apps := []func() App{
		func() App { return NewJacobi(32, 3) },
		func() App { return NewWater(16, 1) },
		func() App { return NewCholesky(spmat.Small(64)) },
	}
	for _, kind := range []config.NICKind{config.NICCNI, config.NICOsiris, config.NICStandard} {
		for _, mk := range apps {
			app := mk()
			cfg := config.ForNIC(kind)
			cfg.DSMOwnership = config.DSMDistributed
			c, res := MustExecute(&cfg, 4, app)
			if err := app.Verify(c); err != nil {
				t.Fatalf("%s on %v distributed: %v", app.Name(), kind, err)
			}
			if res.Time <= 0 {
				t.Fatalf("%s on %v distributed: no time", app.Name(), kind)
			}
		}
	}
}

// TestMemoryCountersGolden pins the memory-system counters that the
// DSM's loads and stores leave in every node's cache hierarchy, summed
// over the cluster, to the values the single-function access path
// produced. The counters are all that shows a change in how an access
// reaches the caches (a hit counted twice, a miss counted as a hit, a
// store that dirties nothing), and the simulated times do not depend
// on most of them.
func TestMemoryCountersGolden(t *testing.T) {
	cases := []struct {
		mk   func() App
		want memsys.Stats
	}{
		{func() App { return NewJacobi(256, 2) }, memsys.Stats{
			Reads: 516128, Writes: 129032, L1Hits: 578088, L1Misses: 67072,
			L2Hits: 49536, L2Misses: 17536, WriteBacks: 1536, Flushes: 29,
			FlushedLns: 1536, Invalidates: 768,
		}},
		{func() App { return NewCholesky(spmat.Small(256)) }, memsys.Stats{
			Reads: 74379, Writes: 38174, L1Hits: 102371, L1Misses: 10182,
			L2Hits: 0, L2Misses: 10182, WriteBacks: 9896, Flushes: 3511,
			FlushedLns: 9896, Invalidates: 18074,
		}},
	}
	for _, tc := range cases {
		app := tc.mk()
		cfg := config.ForNIC(config.NICCNI)
		c, _ := MustExecute(&cfg, 4, app)
		var got memsys.Stats
		for _, n := range c.Nodes {
			s := n.Mem.Stats
			got.Reads += s.Reads
			got.Writes += s.Writes
			got.L1Hits += s.L1Hits
			got.L1Misses += s.L1Misses
			got.L2Hits += s.L2Hits
			got.L2Misses += s.L2Misses
			got.WriteBacks += s.WriteBacks
			got.Flushes += s.Flushes
			got.FlushedLns += s.FlushedLns
			got.Invalidates += s.Invalidates
		}
		if got != tc.want {
			t.Errorf("%s on 4 CNI nodes: memory counters\n%+v, want golden\n%+v", app.Name(), got, tc.want)
		}
	}
}
