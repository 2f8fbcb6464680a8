package apps

import (
	"testing"

	"cni/internal/apps/spmat"
	"cni/internal/config"
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
