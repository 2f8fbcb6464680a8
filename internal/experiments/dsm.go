package experiments

// FD1: centralized versus distributed DSM ownership at scale. The
// paper's DSM (like the home-based LRC codes it descends from) pins
// every page's manager at a static home and all synchronization
// metadata at node 0; past a few dozen nodes those fixed managers
// become the hotspot. The distributed organization
// (Config.DSMOwnership = "distributed") migrates page ownership to
// writers along probable-owner chains and rotates the barrier
// manager, spreading the manager-role load.
//
// The artifact sweeps the three applications over 64-256 nodes (8-16
// quick) on a Clos fabric — the single banyan cannot address these
// counts — under every interface x ownership combination and reports
// two series per cell:
//
//   - speedup: wall time relative to the same configuration's run at
//     the smallest node count (self-relative scaling, the shape that
//     shows where the manager serializes);
//   - mgrmax: the hottest node's manager-role message count
//     (Result.MaxManagerMsgs) — page requests and diffs served in
//     an owner role plus lock/barrier/task traffic served in a manager
//     role. This is the load the distributed organization exists to
//     spread.
//
// NICCollectives is disabled in these configs so the CNI pays the same
// manager-path barriers as the other interfaces: the board's combining
// engine would hide exactly the hotspot this artifact measures.
// Points run on the parallel harness and render bit-identically at
// any -j.

import (
	"fmt"

	"cni/internal/apps"
	"cni/internal/apps/spmat"
	"cni/internal/cluster"
	"cni/internal/config"
)

// fd1Sizes is the node-count sweep.
func fd1Sizes(quick bool) []int {
	if quick {
		return []int{8, 16}
	}
	return []int{64, 128, 256}
}

// fd1Ownerships is the comparison axis.
var fd1Ownerships = []string{config.DSMCentral, config.DSMDistributed}

// fd1Workloads sizes the three applications for the node counts of the
// sweep: Jacobi's interior rows and Water's molecule count must reach
// the top node count or trailing nodes idle.
func fd1Workloads(quick bool) []struct {
	label string
	make  AppMaker
} {
	if quick {
		return []struct {
			label string
			make  AppMaker
		}{
			{"jacobi", AppMaker{Sig: "jacobi/64x4", New: func() apps.App { return apps.NewJacobi(64, 4) }}},
			{"water", AppMaker{Sig: "water/32x1", New: func() apps.App { return apps.NewWater(32, 1) }}},
			{"cholesky", AppMaker{Sig: "cholesky/small-128", New: func() apps.App { return apps.NewCholesky(spmat.Small(128)) }}},
		}
	}
	gen := spmat.BCSSTK14()
	return []struct {
		label string
		make  AppMaker
	}{
		{"jacobi", AppMaker{Sig: "jacobi/512x4", New: func() apps.App { return apps.NewJacobi(512, 4) }}},
		{"water", AppMaker{Sig: "water/256x1", New: func() apps.App { return apps.NewWater(256, 1) }}},
		{"cholesky", AppMaker{Sig: fmt.Sprintf("cholesky/%s-%d-%d", gen.Name, gen.N, gen.Seed),
			New: func() apps.App { return apps.NewCholesky(gen) }}},
	}
}

// fd1Mutate pins one sweep cell's config: Clos fabric for the node
// counts, host-path barriers (see the package comment), and the
// ownership organization under test.
func fd1Mutate(ownership string) func(*config.Config) {
	return func(c *config.Config) {
		c.Topology = config.TopoClos
		c.NICCollectives = false
		c.DSMOwnership = ownership
	}
}

// FigureDSMOwnership reproduces FD1: 2 series (speedup, hottest-node
// manager load) per app x interface x ownership cell over the
// node-count sweep.
func FigureDSMOwnership(o Options) Figure {
	f := Figure{ID: "FD1",
		Title:  "DSM ownership organization: scaling and manager hotspot, centralized vs distributed",
		XLabel: "Nodes", YLabel: "Speedup vs smallest size / hottest-node manager msgs"}
	sizes := fd1Sizes(o.Quick)
	workloads := fd1Workloads(o.Quick)
	futs := map[string]Future[*cluster.Result]{}
	cell := func(app string, kind config.NICKind, ownership string, n int) string {
		return fmt.Sprintf("%s/%s/%s/%d", app, kind, ownership, n)
	}
	for _, wl := range workloads {
		for _, kind := range sweepKinds {
			for _, ownership := range fd1Ownerships {
				for _, n := range sizes {
					futs[cell(wl.label, kind, ownership, n)] =
						o.appPoint(wl.make, kind, n, fd1Mutate(ownership))
				}
			}
		}
	}
	top := sizes[len(sizes)-1]
	for _, wl := range workloads {
		for _, kind := range sweepKinds {
			for _, ownership := range fd1Ownerships {
				base := futs[cell(wl.label, kind, ownership, sizes[0])].Wait()
				sp := Series{Label: fmt.Sprintf("%s-%s-%s-speedup", wl.label, kind.Display(), ownership)}
				mg := Series{Label: fmt.Sprintf("%s-%s-%s-mgrmax", wl.label, kind.Display(), ownership)}
				for _, n := range sizes {
					res := futs[cell(wl.label, kind, ownership, n)].Wait()
					sp.X = append(sp.X, float64(n))
					sp.Y = append(sp.Y, float64(base.Time)/float64(res.Time))
					mg.X = append(mg.X, float64(n))
					mg.Y = append(mg.Y, float64(res.MaxManagerMsgs))
				}
				f.Series = append(f.Series, sp, mg)
			}
			// Sanity at the top size. The centralized organization never
			// forwards or migrates. The apps then split by access
			// pattern, and the assertions follow it: Jacobi is
			// barrier-bound (remote accesses are boundary *reads*, so no
			// write fault ever migrates a page) and rotating the barrier
			// manager must cut the hottest node's load; Cholesky's bag of
			// tasks writes columns wherever they land, so its distributed
			// run must actually migrate ownership and chase chains; Water
			// hashes its per-molecule locks over all nodes in both modes,
			// so no inequality is asserted for it.
			cen := futs[cell(wl.label, kind, config.DSMCentral, top)].Wait()
			dis := futs[cell(wl.label, kind, config.DSMDistributed, top)].Wait()
			if cen.DSM.Forwards != 0 || cen.DSM.Migrations != 0 {
				panic(fmt.Sprintf("experiments: fd1 %s/%s central run forwarded %d / migrated %d",
					wl.label, kind, cen.DSM.Forwards, cen.DSM.Migrations))
			}
			switch wl.label {
			case "jacobi":
				if dis.MaxManagerMsgs >= cen.MaxManagerMsgs {
					panic(fmt.Sprintf("experiments: fd1 %s/%s/%d distributed hottest node %d msgs (node %d) did not beat central %d msgs (node %d)",
						wl.label, kind, top,
						dis.MaxManagerMsgs, dis.MaxManagerNode,
						cen.MaxManagerMsgs, cen.MaxManagerNode))
				}
			case "cholesky":
				if dis.DSM.Migrations == 0 || dis.DSM.Forwards == 0 {
					panic(fmt.Sprintf("experiments: fd1 %s/%s/%d distributed run migrated %d / forwarded %d, want both > 0",
						wl.label, kind, top, dis.DSM.Migrations, dis.DSM.Forwards))
				}
			}
		}
	}
	return f
}
