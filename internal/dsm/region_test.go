package dsm_test

import (
	"testing"

	"cni/internal/apps"
	"cni/internal/config"
	"cni/internal/dsm"
)

// TestJacobiMemoryBound pins page-granular residency: a node holds the
// pages it owns plus the ones it fetched, so Jacobi's row partition
// keeps each node at its own block plus a few halo pages, and the
// whole cluster near one copy of the region. A node that held a full
// copy of the region again (preloading every node, say) fails both
// bounds. The consistency metadata follows the pages held: a node
// keeps a book only for pages it holds, however many pages the write
// notices of the other nodes name.
func TestJacobiMemoryBound(t *testing.T) {
	cfg := config.Default()
	c, _ := apps.MustExecute(&cfg, 8, apps.NewJacobi(256, 4))
	if err := dsm.CheckRegion(c.G); err != nil {
		t.Fatal(err)
	}
	if err := dsm.CheckNotices(c.G); err != nil {
		t.Fatal(err)
	}
	owned, resident, books, region := dsm.Residency(c.G)
	total := 0
	for n := range owned {
		if extra := resident[n] - owned[n]; extra < 0 || extra > 4 {
			t.Errorf("node %d holds %d pages for the %d it owns, want at most 4 more",
				n, resident[n], owned[n])
		}
		if books[n] > resident[n] {
			t.Errorf("node %d keeps %d page books for the %d pages it holds", n, books[n], resident[n])
		}
		total += resident[n]
	}
	if limit := 1.1 * float64(region); float64(total) >= limit {
		t.Errorf("cluster holds %d pages, want fewer than %.1f (1.1 x the %d-page region)",
			total, limit, region)
	}
	t.Logf("%d pages resident across %d nodes for a %d-page region", total, len(owned), region)
}
