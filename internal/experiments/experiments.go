// Package experiments regenerates every table and figure of the CNI
// paper's evaluation (Section 3). Each generator runs the relevant
// workloads on the simulated cluster and returns the same rows or
// series the paper reports; cmd/experiments renders them and
// EXPERIMENTS.md records the paper-versus-measured comparison.
//
// Every artifact decomposes into independent simulation points (one
// cluster run each). Generators submit their points to a Runner
// (runner.go) and join the futures in point order, so the suite can
// fan points across GOMAXPROCS workers — and deduplicate points shared
// between artifacts — while rendering bit-identical output to a
// one-worker run.
//
// Absolute numbers are not expected to match the 1996 testbed — the
// substrate is a model — but the shapes are: who wins, by roughly what
// factor, and where the curves bend.
package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"cni/internal/apps"
	"cni/internal/apps/spmat"
	"cni/internal/cluster"
	"cni/internal/config"
	"cni/internal/sim"
)

// sweepKinds lists the interfaces the F-series microbenchmark sweeps
// (latency, bandwidth, faults, serving) render, in the evaluation's
// comparison order: the CNI first, then the OSIRIS-class ADC baseline
// it derives from, then the standard kernel-mediated interface last.
// Series labels come from NICKind.Display, and all kind-specific
// behavior is asked of the board — the sweep only enumerates which
// models to run.
var sweepKinds = []config.NICKind{config.NICCNI, config.NICOsiris, config.NICStandard}

// Series is one labeled curve of a figure.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Figure is one reproduced figure.
type Figure struct {
	ID     string // "F2" ... "F14"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Table is one reproduced table.
type Table struct {
	ID      string // "T1" ... "T5"
	Title   string
	Columns []string
	Rows    [][]string
}

// Options scale the experiments. Quick shrinks the inputs so the whole
// suite runs in seconds (bench and CI mode); the full sizes are the
// paper's.
type Options struct {
	Quick bool
	// Procs overrides the processor counts swept in scaling figures.
	Procs []int
	// Jobs is the number of workers the parallel harness fans
	// simulation points across; 0 means GOMAXPROCS. It changes only
	// wall-clock time, never results: output is bit-identical at every
	// worker count.
	Jobs int
	// Progress, if non-nil, receives point-completion events. It is
	// called from worker goroutines and must be safe for concurrent
	// use.
	Progress func(Progress)

	// Shards splits each simulation point across this many
	// conservative-parallel kernel shards (Config.SimShards). Like
	// Jobs it changes only wall-clock time, never results: rendered
	// output is bit-identical at every shard count (the shard-parity
	// golden test pins this). Runs whose model cannot shard (DSM page
	// traffic) clamp back to a single kernel.
	Shards int

	// Set by Runner.RunSpec: the pool points are submitted to and the
	// artifact being generated. When nil, points run inline at the
	// call site (the legacy synchronous path).
	runner *Runner
	spec   string
}

// EffectiveParallelism resolves the jobs x shards budget against
// GOMAXPROCS: the point workers times the per-point shard goroutines
// are kept within the core count by reducing Jobs, never Shards
// (either change is invisible in the results — output is bit-identical
// at any jobs and any shards — but the shard count is typically the
// user's explicit request while Jobs defaults to "all cores").
// It returns the clamped options plus a printable summary line.
func (o Options) EffectiveParallelism() (Options, string) {
	procs := runtime.GOMAXPROCS(0)
	jobs := o.Jobs
	if jobs <= 0 {
		jobs = procs
	}
	shards := o.Shards
	if shards < 1 {
		shards = 1
	}
	if jobs*shards > procs {
		jobs = procs / shards
		if jobs < 1 {
			jobs = 1
		}
	}
	o.Jobs = jobs
	kernel := "single kernel per point"
	if o.Shards >= 1 {
		kernel = fmt.Sprintf("%d kernel shard(s) per point", shards)
	}
	return o, fmt.Sprintf("parallelism: %d point worker(s) x %s, GOMAXPROCS %d", jobs, kernel, procs)
}

func (o Options) procs() []int {
	if len(o.Procs) > 0 {
		return o.Procs
	}
	if o.Quick {
		return []int{1, 2, 4, 8}
	}
	return []int{1, 2, 4, 8, 16, 24, 32}
}

// AppMaker builds fresh instances of one benchmark application
// configuration; every simulated run needs its own instance. Sig
// uniquely names the application plus its input sizes so the harness
// can key runs for memoization.
type AppMaker struct {
	Sig string
	New func() apps.App
}

// jacobiSize picks the grid and iteration count. The hit ratio needs
// several iterations past the cold start to reach its steady state
// (the paper runs to convergence).
func jacobiSize(size int, quick bool) (int, int) {
	if quick {
		if size > 128 {
			size = 128
		}
		return size, 6
	}
	return size, 10
}

// JacobiMaker returns the Jacobi workload for figures F2-F5/T2.
func JacobiMaker(size int, o Options) AppMaker {
	r, iters := jacobiSize(size, o.Quick)
	return AppMaker{
		Sig: fmt.Sprintf("jacobi/%dx%d", r, iters),
		New: func() apps.App { return apps.NewJacobi(r, iters) },
	}
}

// WaterMaker returns the Water workload for figures F6-F9/T3.
func WaterMaker(mols int, o Options) AppMaker {
	if o.Quick && mols > 32 {
		mols = 32
	}
	return AppMaker{
		Sig: fmt.Sprintf("water/%dx2", mols),
		New: func() apps.App { return apps.NewWater(mols, 2) },
	}
}

// CholeskyMaker returns the Cholesky workload for F10-F12/T4.
func CholeskyMaker(gen spmat.Gen, o Options) AppMaker {
	if o.Quick {
		gen = spmat.Small(128)
	}
	return AppMaker{
		Sig: fmt.Sprintf("cholesky/%s-%d-%d", gen.Name, gen.N, gen.Seed),
		New: func() apps.App { return apps.NewCholesky(gen) },
	}
}

// appPoint submits one workload run on n nodes with the given
// interface as a harness point and returns its future.
func (o Options) appPoint(mk AppMaker, kind config.NICKind, n int, mutate func(*config.Config)) Future[*cluster.Result] {
	cfg := config.ForNIC(kind)
	if mutate != nil {
		mutate(&cfg)
	}
	// DSM workloads clamp back to one kernel inside cluster.New (page
	// transfers have zero lookahead); carrying the request through
	// anyway keeps the clamp path exercised by every suite run.
	cfg.SimShards = o.Shards
	key := pointKey{cfg: cfg, n: n, what: "app/" + mk.Sig}
	return submitPoint(o, key, func() *cluster.Result {
		c := cfg // each run owns its Config copy
		app := mk.New()
		_, res := apps.MustExecute(&c, n, app)
		return res
	})
}

// TableT1 renders the simulation parameters (Table 1).
func TableT1() Table {
	cfg := config.Default()
	t := Table{ID: "T1", Title: "Simulation Parameters", Columns: []string{"Parameter", "Value"}}
	for _, line := range strings.Split(strings.TrimSpace(cfg.Table1()), "\n") {
		k := strings.TrimSpace(line[:34])
		v := strings.TrimSpace(line[34:])
		t.Rows = append(t.Rows, []string{k, v})
	}
	return t
}

// FigureScaling reproduces the speedup + network-cache-hit-ratio
// figures (F2-F4 Jacobi, F6-F8 Water, F10-F11 Cholesky): CNI and
// standard speedups over the 1-processor run, plus the CNI hit ratio.
func FigureScaling(id, title string, mk AppMaker, o Options) Figure {
	f := Figure{ID: id, Title: title, XLabel: "No of processors", YLabel: "Speedup / Hit ratio (%)"}
	seqF := o.appPoint(mk, config.NICCNI, 1, nil)
	type pointPair struct {
		cni, std Future[*cluster.Result]
	}
	procs := o.procs()
	points := make([]pointPair, len(procs))
	for i, p := range procs {
		points[i] = pointPair{
			cni: o.appPoint(mk, config.NICCNI, p, nil),
			std: o.appPoint(mk, config.NICStandard, p, nil),
		}
	}
	seq := seqF.Wait()
	var cniS, stdS, hitS Series
	cniS.Label, stdS.Label, hitS.Label = "CNI-speedup", "Standard-speedup", "Network Cache Hit Ratio"
	for i, p := range procs {
		x := float64(p)
		cni := points[i].cni.Wait()
		std := points[i].std.Wait()
		cniS.X = append(cniS.X, x)
		cniS.Y = append(cniS.Y, float64(seq.Time)/float64(cni.Time))
		stdS.X = append(stdS.X, x)
		stdS.Y = append(stdS.Y, float64(seq.Time)/float64(std.Time))
		hitS.X = append(hitS.X, x)
		hitS.Y = append(hitS.Y, cni.HitRatio)
	}
	f.Series = []Series{cniS, stdS, hitS}
	return f
}

// pageSizes is the sweep of F5/F9/F12.
func pageSizes(quick bool) []int {
	if quick {
		return []int{1024, 2048, 4096}
	}
	return []int{1024, 2048, 4096, 8192, 16384}
}

// FigurePageSize reproduces the page-size sensitivity figures (F5, F9,
// F12): 8-processor execution-time-derived speedup versus shared page
// size for both interfaces.
func FigurePageSize(id, title string, mk AppMaker, o Options) Figure {
	f := Figure{ID: id, Title: title, XLabel: "Page Size (bytes)", YLabel: "Speedup"}
	n := 8
	if o.Quick {
		n = 4
	}
	type pointTriple struct {
		seq, cni, std Future[*cluster.Result]
	}
	sizes := pageSizes(o.Quick)
	points := make([]pointTriple, len(sizes))
	for i, ps := range sizes {
		mutate := func(c *config.Config) { c.PageBytes = ps }
		points[i] = pointTriple{
			seq: o.appPoint(mk, config.NICCNI, 1, mutate),
			cni: o.appPoint(mk, config.NICCNI, n, mutate),
			std: o.appPoint(mk, config.NICStandard, n, mutate),
		}
	}
	var cniS, stdS Series
	cniS.Label, stdS.Label = "CNI", "Standard"
	for i, ps := range sizes {
		seq := points[i].seq.Wait()
		cni := points[i].cni.Wait()
		std := points[i].std.Wait()
		cniS.X = append(cniS.X, float64(ps))
		cniS.Y = append(cniS.Y, float64(seq.Time)/float64(cni.Time))
		stdS.X = append(stdS.X, float64(ps))
		stdS.Y = append(stdS.Y, float64(seq.Time)/float64(std.Time))
	}
	f.Series = []Series{cniS, stdS}
	return f
}

// TableOverhead reproduces the overhead-breakdown tables (T2 Jacobi,
// T3 Water, T4 Cholesky): synchronization overhead, synchronization
// delay, computation and total, in cycles, for both interfaces on 8
// processors.
func TableOverhead(id, title string, mk AppMaker, o Options) Table {
	n := 8
	if o.Quick {
		n = 4
	}
	cniF := o.appPoint(mk, config.NICCNI, n, nil)
	stdF := o.appPoint(mk, config.NICStandard, n, nil)
	cni, std := cniF.Wait(), stdF.Wait()
	row := func(name string, a, b sim.Time) []string {
		return []string{name, fmt.Sprintf("%d", a), fmt.Sprintf("%d", b)}
	}
	return Table{
		ID: id, Title: title,
		Columns: []string{"Category", "Time-CNI (cycles)", "Time-standard (cycles)"},
		Rows: [][]string{
			row("Synch overhead", cni.AvgOverhead, std.AvgOverhead),
			row("Synch delay", cni.AvgDelay, std.AvgDelay),
			row("Computation", cni.AvgComputation, std.AvgComputation),
			row("Total", cni.Time, std.Time),
		},
	}
}

// cacheSizes is the sweep of F13.
func cacheSizes(quick bool) []int {
	if quick {
		return []int{8 << 10, 32 << 10, 128 << 10}
	}
	return []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}
}

// FigureCacheSize reproduces F13: network cache hit ratio of the
// 8-processor applications versus Message Cache size.
func FigureCacheSize(o Options) Figure {
	f := Figure{ID: "F13", Title: "Network Cache Hit Ratios vs Message Cache size (8 processors)",
		XLabel: "Message Cache Size (KB)", YLabel: "Network Cache Hit Ratio (%)"}
	n := 8
	if o.Quick {
		n = 4
	}
	workloads := []struct {
		label string
		make  AppMaker
	}{
		{"Jacobi", JacobiMaker(1024, o)},
		{"Water", WaterMaker(216, o)},
		{"Cholesky", CholeskyMaker(spmat.BCSSTK14(), o)},
	}
	sizes := cacheSizes(o.Quick)
	points := make([][]Future[*cluster.Result], len(workloads))
	for i, wl := range workloads {
		points[i] = make([]Future[*cluster.Result], len(sizes))
		for j, sz := range sizes {
			sz := sz
			points[i][j] = o.appPoint(wl.make, config.NICCNI, n,
				func(c *config.Config) { c.MessageCacheByte = sz })
		}
	}
	for i, wl := range workloads {
		s := Series{Label: wl.label}
		for j, sz := range sizes {
			res := points[i][j].Wait()
			s.X = append(s.X, float64(sz>>10))
			s.Y = append(s.Y, res.HitRatio)
		}
		f.Series = append(f.Series, s)
	}
	return f
}

// TableUnrestrictedCell reproduces Table 5: percentage improvement in
// execution time when the ATM cell size is unrestricted (no
// fragmentation/reassembly), for the three 8-processor applications.
func TableUnrestrictedCell(o Options) Table {
	n := 8
	if o.Quick {
		n = 4
	}
	workloads := []struct {
		label string
		make  AppMaker
	}{
		{"Jacobi with 1024x1024 matrix", JacobiMaker(1024, o)},
		{"Water with 343 molecules", WaterMaker(343, o)},
		{"Cholesky with matrix bcsstk14", CholeskyMaker(spmat.BCSSTK14(), o)},
	}
	t := Table{ID: "T5", Title: "Performance Improvements using ATM with unrestricted cell size",
		Columns: []string{fmt.Sprintf("%d-processor Applications", n), "%age Improvement"}}
	type pointPair struct {
		base, unr Future[*cluster.Result]
	}
	points := make([]pointPair, len(workloads))
	for i, wl := range workloads {
		points[i] = pointPair{
			base: o.appPoint(wl.make, config.NICCNI, n, nil),
			unr:  o.appPoint(wl.make, config.NICCNI, n, func(c *config.Config) { c.UnrestrictedCell = true }),
		}
	}
	for i, wl := range workloads {
		base := points[i].base.Wait()
		unr := points[i].unr.Wait()
		imp := 100 * (float64(base.Time) - float64(unr.Time)) / float64(base.Time)
		t.Rows = append(t.Rows, []string{wl.label, fmt.Sprintf("%.2f", imp)})
	}
	return t
}
