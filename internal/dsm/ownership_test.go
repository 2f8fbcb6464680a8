package dsm_test

import (
	"testing"

	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
)

// Tests for the distributed-ownership protocol (Config.DSMOwnership =
// "distributed"): per-page probable-owner chains, forwarding, and
// ownership migration on write faults.

// ownershipWorkload rotates writers over the shared stripes so page
// ownership wants to chase the writes: in round r node j writes the
// stripe of node (j+r)%n, takes a locked turn on a shared counter, and
// barriers. Data-race-free, so central and distributed ownership must
// compute identical memory.
func ownershipWorkload(words, rounds int) cluster.App {
	return func(w *dsm.Worker) {
		n := w.Nodes()
		stripe := words / 2 / n
		for r := 0; r < rounds; r++ {
			target := (w.Node() + r) % n
			lo := words/2 + target*stripe
			for i := lo; i < lo+stripe; i += 3 {
				w.WriteU64(i, uint64(r)<<32|uint64(w.Node())<<16|uint64(i))
			}
			w.Lock(9)
			w.WriteU64(1, w.ReadU64(1)+1)
			w.Unlock(9)
			w.Barrier(r)
		}
	}
}

// checkOwnership fails the test when a finished run breaks an
// ownership invariant (dsm.CheckOwnership), a twin invariant
// (dsm.CheckTwins), a write-notice invariant (dsm.CheckNotices) or a
// region invariant (dsm.CheckRegion).
func checkOwnership(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	if err := dsm.CheckOwnership(c.G); err != nil {
		t.Fatal(err)
	}
	if err := dsm.CheckTwins(c.G); err != nil {
		t.Fatal(err)
	}
	if err := dsm.CheckNotices(c.G); err != nil {
		t.Fatal(err)
	}
	if err := dsm.CheckRegion(c.G); err != nil {
		t.Fatal(err)
	}
}

// TestDistributedMatchesCentral: the ownership organization moves
// protocol messages around but never changes what the program
// computes. Whole-memory equality across the two modes, on all three
// interfaces.
func TestDistributedMatchesCentral(t *testing.T) {
	const words, rounds = 4096, 6
	for _, kind := range []config.NICKind{config.NICCNI, config.NICOsiris, config.NICStandard} {
		for _, n := range []int{2, 4, 5} {
			central := config.ForNIC(kind)
			distributed := config.ForNIC(kind)
			distributed.DSMOwnership = config.DSMDistributed

			cc := mustCluster(&central, n, func(g *dsm.Globals) { g.Alloc(words) })
			cc.Run(ownershipWorkload(words, rounds))
			checkOwnership(t, cc)
			cd := mustCluster(&distributed, n, func(g *dsm.Globals) { g.Alloc(words) })
			rd := cd.Run(ownershipWorkload(words, rounds))
			checkOwnership(t, cd)

			for idx := 0; idx < words; idx++ {
				if a, b := cc.ReadU64(idx), cd.ReadU64(idx); a != b {
					t.Fatalf("%v n=%d word %d: central %d vs distributed %d", kind, n, idx, a, b)
				}
			}
			if n > 1 && rd.DSM.Migrations == 0 {
				t.Fatalf("%v n=%d: rotating writers never migrated ownership", kind, n)
			}
		}
	}
}

// TestOwnershipMigratesOnWriteFault: a clean write fault moves the
// ownership (and thus the authoritative copy) to the writer.
func TestOwnershipMigratesOnWriteFault(t *testing.T) {
	cfg := config.ForNIC(config.NICCNI)
	cfg.DSMOwnership = config.DSMDistributed
	c := mustCluster(&cfg, 2, func(g *dsm.Globals) { g.Alloc(1024) })
	res := c.Run(func(w *dsm.Worker) {
		if w.Node() == 1 {
			for i := 0; i < 256; i++ { // exactly page 0, homed at node 0
				w.WriteU64(i, uint64(i)+7)
			}
		}
		w.Barrier(0)
	})
	checkOwnership(t, c)
	if res.DSM.Migrations == 0 {
		t.Fatal("write fault on a clean remote page did not migrate ownership")
	}
	if owner := c.G.OwnerOf(0); owner != 1 {
		t.Fatalf("page 0 owned by node %d after node 1's write burst, want 1", owner)
	}
	// Post-run reads must follow the owner, not the static home.
	for i := 0; i < 256; i += 31 {
		if got := c.ReadU64(i); got != uint64(i)+7 {
			t.Fatalf("word %d = %d after migration, want %d", i, got, uint64(i)+7)
		}
	}
	// No diff should have been needed: the writer owned the page by the
	// time it released.
	if res.PerNode[1].DSM.Migrations != 1 {
		t.Fatalf("node 1 recorded %d migrations, want 1", res.PerNode[1].DSM.Migrations)
	}
}

// TestProbableOwnerChainsForward: migration happens on write-first
// faults (a read-then-write twins on the valid copy instead, the
// multiple-writer LRC path), so rotate a write-only burst over one
// page. After the first migration the static home's pointer is stale
// and later requesters — who all start at the static home — must be
// forwarded down the probable-owner chain.
func TestProbableOwnerChainsForward(t *testing.T) {
	cfg := config.ForNIC(config.NICCNI)
	cfg.DSMOwnership = config.DSMDistributed
	const n = 4
	c := mustCluster(&cfg, n, func(g *dsm.Globals) { g.Alloc(1024) })
	const rounds = 3 * n
	res := c.Run(func(w *dsm.Worker) {
		for r := 0; r < rounds; r++ {
			if w.Node() == r%n {
				for i := 256; i < 264; i++ { // page 1, homed at node 1
					w.WriteU64(i, uint64(r)<<16|uint64(i))
				}
			}
			w.Barrier(r)
		}
	})
	checkOwnership(t, c)
	if res.DSM.Migrations < uint64(n) {
		t.Fatalf("rotating write bursts migrated ownership %d times, want >= %d",
			res.DSM.Migrations, n)
	}
	if res.DSM.Forwards == 0 {
		t.Fatal("stale probable-owner pointers produced no chain forwards")
	}
	if res.DSM.Chain.Total() == 0 {
		t.Fatal("no completed fetch observed a chain length")
	}
	if res.DSM.Chain.Mean() <= 0 {
		t.Fatalf("mean chain length %v with %d forwards", res.DSM.Chain.Mean(), res.DSM.Forwards)
	}
	for i := 256; i < 264; i++ {
		if got, want := c.ReadU64(i), uint64(rounds-1)<<16|uint64(i); got != want {
			t.Fatalf("word %d = %#x, want %#x (last round's writer)", i, got, want)
		}
	}
}

// TestChainConvergenceUnderFaults: cell loss and reorder delay and
// retransmit protocol messages, so requests hit stale owners and
// chains stretch — but every chain must still converge (a
// non-converging chain panics via the hop budget) and the memory must
// still be exact.
func TestChainConvergenceUnderFaults(t *testing.T) {
	const words, rounds, n = 2048, 5, 4
	for _, kind := range []config.NICKind{config.NICCNI, config.NICStandard} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := config.ForNIC(kind)
			cfg.DSMOwnership = config.DSMDistributed
			cfg.CellLossRate = 0.01
			cfg.ReorderWindow = 4
			cfg.FaultSeed = seed

			c := mustCluster(&cfg, n, func(g *dsm.Globals) { g.Alloc(words) })
			res := c.Run(ownershipWorkload(words, rounds))
			if res.Rel.Retransmits == 0 {
				t.Fatalf("%v seed %d: fault injection produced no retransmits", kind, seed)
			}

			// Reference run: same program, central ownership, no faults.
			ref := config.ForNIC(kind)
			cr := mustCluster(&ref, n, func(g *dsm.Globals) { g.Alloc(words) })
			cr.Run(ownershipWorkload(words, rounds))
			for idx := 0; idx < words; idx++ {
				if a, b := cr.ReadU64(idx), c.ReadU64(idx); a != b {
					t.Fatalf("%v seed %d word %d: reference %d vs faulted-distributed %d",
						kind, seed, idx, a, b)
				}
			}
		}
	}
}

// TestDistributedDeterminism: same config, same program — identical
// wall time and identical per-node protocol counters.
func TestDistributedDeterminism(t *testing.T) {
	const words, rounds, n = 2048, 4, 3
	cfg := config.ForNIC(config.NICCNI)
	cfg.DSMOwnership = config.DSMDistributed
	run := func() *cluster.Result {
		c := mustCluster(&cfg, n, func(g *dsm.Globals) { g.Alloc(words) })
		return c.Run(ownershipWorkload(words, rounds))
	}
	a, b := run(), run()
	if a.Time != b.Time {
		t.Fatalf("wall time %d vs %d across identical runs", a.Time, b.Time)
	}
	for i := range a.PerNode {
		if a.PerNode[i].DSM != b.PerNode[i].DSM {
			t.Fatalf("node %d DSM stats differ:\n%+v\nvs\n%+v", i, a.PerNode[i].DSM, b.PerNode[i].DSM)
		}
	}
}

// TestValidateRejectsUpdateWithDistributed: the eager-update protocol's
// copysets are pinned at static homes and do not migrate.
func TestValidateRejectsUpdateWithDistributed(t *testing.T) {
	cfg := config.Default()
	cfg.UpdateProtocol = true
	cfg.DSMOwnership = config.DSMDistributed
	if err := cfg.Validate(); err == nil {
		t.Fatal("UpdateProtocol + distributed ownership validated")
	}
	cfg.DSMOwnership = "bogus"
	cfg.UpdateProtocol = false
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown ownership mode validated")
	}
}
