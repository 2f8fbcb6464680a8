// Package apps implements the three distributed-shared-memory
// benchmark applications of the CNI paper's evaluation, spanning the
// granularity spectrum exactly as Section 3.1 describes:
//
//   - Jacobi — coarse-grained iterative relaxation on a square grid,
//     two synchronization points per iteration, high computation-to-
//     communication ratio;
//   - Water — medium-grained molecular dynamics in the style of the
//     SPLASH code, with the paper's modification of postponing
//     molecule updates to the end of each step, synchronized by
//     per-molecule locks and barriers;
//   - Cholesky — fine-grained supernodal sparse Cholesky
//     factorization, columns/supernodes handed out through a bag of
//     tasks and guarded by column locks, with heavy page migration.
//
// Every application is an App: it sizes the shared region, preloads
// the initial data image, runs the SPMD body, and verifies its result
// against a sequential reference.
package apps

import (
	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/dsm"
)

// App is one benchmark application.
type App interface {
	// Name identifies the app and its input, e.g. "jacobi-1024".
	Name() string
	// Setup allocates the shared region; runs before the cluster wires.
	Setup(g *dsm.Globals)
	// Init preloads the initial memory image (untimed).
	Init(c *cluster.Cluster)
	// Body is the SPMD program every node runs.
	Body(w *dsm.Worker)
	// Verify checks the shared result against a sequential reference.
	Verify(c *cluster.Cluster) error
}

// Execute builds an n-node cluster for app and runs it end to end,
// returning the cluster (for Verify and post-mortem reads) and the
// run's metrics. An invalid configuration or a node count the selected
// topology cannot address is an error, mirroring cluster.New — config
// and node count are user input.
func Execute(cfg *config.Config, n int, app App) (*cluster.Cluster, *cluster.Result, error) {
	c, err := cluster.New(cfg, n, app.Setup)
	if err != nil {
		return nil, nil, err
	}
	app.Init(c)
	res := c.Run(app.Body)
	return c, res, nil
}

// MustExecute is Execute for callers whose configs are constructed
// from ForNIC defaults rather than user input (the experiment
// generators): a construction failure there is a programming error, so
// it panics.
func MustExecute(cfg *config.Config, n int, app App) (*cluster.Cluster, *cluster.Result) {
	c, res, err := Execute(cfg, n, app)
	if err != nil {
		panic(err)
	}
	return c, res
}
