package experiments

import (
	"strconv"
	"strings"
	"testing"

	"cni/internal/apps/spmat"
	"cni/internal/config"
)

var quick = Options{Quick: true, Procs: []int{1, 2, 4}}

// latency and bandwidth run one point-to-point probe inline, as the
// F14 and FB1 points do.
func latency(kind config.NICKind, size int) float64 {
	return Options{}.probePoint(kind, Probe{Metric: MetricLatency, Size: size}).Wait()
}

func bandwidth(kind config.NICKind, size int) float64 {
	return Options{}.probePoint(kind, Probe{Metric: MetricBandwidth, Size: size}).Wait()
}

func TestLatencyReductionMatchesHeadline(t *testing.T) {
	// "the communication latency is lower for the CNI architecture by
	// as much as 33%" at a 4 KB page transfer.
	red := LatencyReduction(4096)
	if red < 25 || red > 45 {
		t.Fatalf("latency reduction at 4KB = %.1f%%, want ~33%% (25-45)", red)
	}
}

func TestLatencyMonotoneAndOrdered(t *testing.T) {
	var prevC, prevS float64
	for _, size := range []int{0, 512, 1024, 2048, 4096} {
		c := latency(config.NICCNI, size)
		s := latency(config.NICStandard, size)
		if c >= s {
			t.Fatalf("size %d: CNI %.0f ns >= standard %.0f ns", size, c, s)
		}
		if c < prevC || s < prevS {
			t.Fatalf("latency not monotone in size at %d", size)
		}
		prevC, prevS = c, s
	}
}

func TestLatencyScaleIsPlausible(t *testing.T) {
	// 4 KB on the standard interface: the paper's figure tops out
	// around 200 (us); the model should be within a loose band of
	// 100-400 us, and far above the 0-byte latency.
	s := latency(config.NICStandard, 4096)
	if s < 100_000 || s > 400_000 {
		t.Fatalf("standard 4KB latency = %.0f ns, want 100-400 us", s)
	}
	s0 := latency(config.NICStandard, 0)
	if s0 >= s/2 {
		t.Fatalf("0-byte latency %.0f ns implausibly close to 4KB latency %.0f ns", s0, s)
	}
}

func TestFigureFC1Shape(t *testing.T) {
	f := FigureCollective(Options{Quick: true})
	if len(f.Series) != 5 {
		t.Fatalf("%d series", len(f.Series))
	}
	byLabel := map[string]Series{}
	for _, s := range f.Series {
		byLabel[s.Label] = s
	}
	cniB, stdB := byLabel["CNI-barrier"], byLabel["Standard-barrier"]
	cniA, stdA := byLabel["CNI-allreduce"], byLabel["Standard-allreduce"]
	for i, x := range cniB.X {
		// The acceptance bar is strictly-faster at >=8 nodes; the model
		// in fact wins at every node count.
		if cniB.Y[i] >= stdB.Y[i] {
			t.Fatalf("n=%v: CNI barrier %.2f us >= standard %.2f us", x, cniB.Y[i], stdB.Y[i])
		}
		if cniA.Y[i] >= stdA.Y[i] {
			t.Fatalf("n=%v: CNI allreduce %.2f us >= standard %.2f us", x, cniA.Y[i], stdA.Y[i])
		}
		if i > 0 && cniB.Y[i] <= cniB.Y[i-1] {
			t.Fatalf("CNI barrier latency not increasing with n at %v", x)
		}
	}
	// The log N schedule must beat the linear ring once N is large
	// enough even on the host; at the quick sweep's top (8 nodes) the
	// engine on the CNI must beat the ring outright.
	ring := byLabel["Standard-allreduce-ring"]
	last := len(ring.Y) - 1
	if cniA.Y[last] >= ring.Y[last] {
		t.Fatalf("CNI allreduce %.2f us >= ring %.2f us at n=%v", cniA.Y[last], ring.Y[last], ring.X[last])
	}
}

func TestScalingFigureShape(t *testing.T) {
	f := FigureScaling("F2", "quick jacobi", JacobiMaker(128, quick), quick)
	if len(f.Series) != 3 {
		t.Fatalf("%d series", len(f.Series))
	}
	cni, std, hit := f.Series[0], f.Series[1], f.Series[2]
	last := len(cni.Y) - 1
	if cni.Y[0] < 0.95 || cni.Y[0] > 1.05 {
		t.Fatalf("1-proc CNI speedup = %v, want ~1", cni.Y[0])
	}
	if cni.Y[last] <= 1 {
		t.Fatalf("CNI speedup at %v procs = %v, want > 1", cni.X[last], cni.Y[last])
	}
	// CNI never loses to standard on any point.
	for i := range cni.Y {
		if cni.Y[i] < std.Y[i]*0.999 {
			t.Fatalf("CNI speedup %v below standard %v at %v procs", cni.Y[i], std.Y[i], cni.X[i])
		}
	}
	// Jacobi's hit ratio is high once warmed; quick mode runs only 6
	// iterations so cold misses still weigh in.
	if hit.Y[last] < 55 {
		t.Fatalf("Jacobi hit ratio = %v, want high", hit.Y[last])
	}
}

func TestOverheadTableShape(t *testing.T) {
	tb := TableOverhead("T2", "quick jacobi overheads", JacobiMaker(128, quick), quick)
	if len(tb.Rows) != 4 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	get := func(row, col int) int64 {
		v, err := strconv.ParseInt(tb.Rows[row][col], 10, 64)
		if err != nil {
			t.Fatalf("cell (%d,%d) = %q", row, col, tb.Rows[row][col])
		}
		return v
	}
	// Paper's shape: CNI has lower synch overhead and lower synch
	// delay; computation is essentially equal; totals favor CNI.
	if get(0, 1) >= get(0, 2) {
		t.Fatalf("CNI synch overhead %d not below standard %d", get(0, 1), get(0, 2))
	}
	if get(1, 1) > get(1, 2) {
		t.Fatalf("CNI synch delay %d above standard %d", get(1, 1), get(1, 2))
	}
	if get(3, 1) >= get(3, 2) {
		t.Fatalf("CNI total %d not below standard %d", get(3, 1), get(3, 2))
	}
	compA, compB := float64(get(2, 1)), float64(get(2, 2))
	if compA/compB > 1.1 || compB/compA > 1.1 {
		t.Fatalf("computation differs too much: %v vs %v", compA, compB)
	}
}

func TestUnrestrictedCellImproves(t *testing.T) {
	tb := TableUnrestrictedCell(quick)
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= 0 {
			t.Fatalf("%s: unrestricted cells made things worse (%v%%)", row[0], v)
		}
		if v > 60 {
			t.Fatalf("%s: improvement %v%% implausibly large", row[0], v)
		}
	}
}

func TestCacheSizeFigureShape(t *testing.T) {
	f := FigureCacheSize(quick)
	if len(f.Series) != 3 {
		t.Fatalf("%d series", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Y) != len(cacheSizes(true)) {
			t.Fatalf("series %s has %d points", s.Label, len(s.Y))
		}
		// Hit ratio must not collapse as the cache grows: allow small
		// wiggle, require the largest cache to be within a whisker of
		// the best.
		best := 0.0
		for _, y := range s.Y {
			if y > best {
				best = y
			}
		}
		if s.Y[len(s.Y)-1] < best-5 {
			t.Fatalf("series %s: hit ratio at max cache %v far below best %v",
				s.Label, s.Y[len(s.Y)-1], best)
		}
	}
}

func TestPageSizeFigureShape(t *testing.T) {
	f := FigurePageSize("F5", "quick jacobi page size", JacobiMaker(128, quick), quick)
	if len(f.Series) != 2 {
		t.Fatalf("%d series", len(f.Series))
	}
	for i := range f.Series[0].Y {
		if f.Series[0].Y[i] < f.Series[1].Y[i]*0.999 {
			t.Fatalf("CNI below standard at page size %v", f.Series[0].X[i])
		}
	}
}

func TestTableT1MatchesPaper(t *testing.T) {
	tb := TableT1()
	joined := ""
	for _, r := range tb.Rows {
		joined += r[0] + "=" + r[1] + ";"
	}
	for _, want := range []string{"166 MHz", "32 KB", "25 MHz", "33 MHz", "500 ns"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("T1 missing %q: %s", want, joined)
		}
	}
}

func TestRegistryCoversEveryArtifact(t *testing.T) {
	want := []string{"T1", "F2", "F3", "F4", "F5", "T2", "F6", "F7", "F8", "F9",
		"T3", "F10", "F11", "F12", "T4", "F13", "F14", "T5", "FB1", "FC1", "FR1", "FS1", "FT1", "FD1", "FS2"}
	specs := All()
	if len(specs) != len(want) {
		t.Fatalf("%d specs, want %d", len(specs), len(want))
	}
	for i, id := range want {
		if specs[i].ID != id {
			t.Fatalf("spec %d = %s, want %s", i, specs[i].ID, id)
		}
		if (specs[i].Figure == nil) == (specs[i].Table == nil) {
			t.Fatalf("spec %s must have exactly one generator", id)
		}
	}
	if _, ok := Find("F13"); !ok {
		t.Fatal("Find(F13) failed")
	}
	if _, ok := Find("F99"); ok {
		t.Fatal("Find(F99) succeeded")
	}
}

func TestRenderers(t *testing.T) {
	tb := Table{ID: "TX", Title: "demo", Columns: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}, {"333", "4"}}}
	s := RenderTable(tb)
	if !strings.Contains(s, "TX: demo") || !strings.Contains(s, "333") {
		t.Fatalf("table render:\n%s", s)
	}
	f := Figure{ID: "FX", Title: "demo", XLabel: "x",
		Series: []Series{{Label: "s1", X: []float64{1, 2}, Y: []float64{3, 4.5}}}}
	r := RenderFigure(f)
	if !strings.Contains(r, "FX: demo") || !strings.Contains(r, "4.50") {
		t.Fatalf("figure render:\n%s", r)
	}
}

func TestCholeskyScalingQuickShape(t *testing.T) {
	f := FigureScaling("F10", "quick cholesky", CholeskyMaker(spmat.BCSSTK14(), quick), quick)
	cni, std := f.Series[0], f.Series[1]
	last := len(cni.Y) - 1
	if cni.Y[last] < std.Y[last]*0.999 {
		t.Fatalf("CNI cholesky speedup %v below standard %v", cni.Y[last], std.Y[last])
	}
}

func TestBandwidthApproachesLinkRate(t *testing.T) {
	// At page-sized messages both interfaces should approach (and never
	// exceed) the 622 Mb/s link: ~77 MB/s.
	for _, kind := range []config.NICKind{config.NICCNI, config.NICStandard} {
		bw := bandwidth(kind, 4096)
		if bw > 78 {
			t.Fatalf("%v: bandwidth %.1f MB/s exceeds the link rate", kind, bw)
		}
		if bw < 35 {
			t.Fatalf("%v: bandwidth %.1f MB/s implausibly low for 4KB messages", kind, bw)
		}
	}
}

func TestSmallMessageBandwidthGap(t *testing.T) {
	// At small messages the standard interface's per-message costs cap
	// throughput; the CNI must be clearly faster.
	cni := bandwidth(config.NICCNI, 256)
	std := bandwidth(config.NICStandard, 256)
	if cni <= std {
		t.Fatalf("small-message bandwidth: cni %.2f <= std %.2f MB/s", cni, std)
	}
}

func TestFigureFR1Shape(t *testing.T) {
	f := FigureFaults(Options{Quick: true})
	if want := 4 * len(sweepKinds); len(f.Series) != want {
		t.Fatalf("%d series, want %d", len(f.Series), want)
	}
	byLabel := map[string]Series{}
	for _, s := range f.Series {
		byLabel[s.Label] = s
	}
	for _, kind := range []string{"CNI", "Osiris", "Standard"} {
		for _, metric := range []string{"rtt-slowdown", "jacobi-slowdown", "allreduce-slowdown"} {
			s := byLabel[kind+"-"+metric]
			if len(s.Y) != len(FaultRates) {
				t.Fatalf("%s-%s has %d points, want %d", kind, metric, len(s.Y), len(FaultRates))
			}
			// The lossless point is the baseline by construction.
			if s.Y[0] < 0.999 || s.Y[0] > 1.001 {
				t.Fatalf("%s-%s lossless slowdown = %v, want 1", kind, metric, s.Y[0])
			}
			for i, y := range s.Y {
				if y < 0.999 {
					t.Fatalf("%s-%s at rate %v: slowdown %v below 1", kind, metric, s.X[i], y)
				}
			}
		}
		rtx := byLabel[kind+"-retransmits"]
		if rtx.Y[0] != 0 {
			t.Fatalf("%s retransmitted on the lossless fabric", kind)
		}
		for i := 1; i < len(rtx.Y); i++ {
			if rtx.Y[i] == 0 {
				t.Fatalf("%s: zero retransmits at loss rate %v", kind, rtx.X[i])
			}
		}
	}
	// The headline: at the highest loss rate the standard interface,
	// which pays a host interrupt and a fresh DMA per recovery, slows
	// down at least as much as the CNI, whose firmware retransmits from
	// board memory.
	last := len(FaultRates) - 1
	cni := byLabel["CNI-jacobi-slowdown"].Y[last]
	std := byLabel["Standard-jacobi-slowdown"].Y[last]
	if cni > std*1.05 {
		t.Fatalf("CNI jacobi slowdown %v far above standard %v at 1e-3 loss", cni, std)
	}
}

func TestOsirisLatencyBetween(t *testing.T) {
	// The acceptance bar for the third model: OSIRIS saves the kernel
	// send/receive paths through its user-level queues but still pays an
	// interrupt and a DMA per message, so its latency lands strictly
	// between the CNI and the standard interface.
	for _, size := range []int{1024, 4096} {
		c := latency(config.NICCNI, size)
		o := latency(config.NICOsiris, size)
		s := latency(config.NICStandard, size)
		if !(c < o && o < s) {
			t.Fatalf("size %d: want cni < osiris < standard, got %.0f / %.0f / %.0f ns", size, c, o, s)
		}
	}
}

func TestFigureBandwidthShape(t *testing.T) {
	f := FigureBandwidth(Options{Quick: true})
	if len(f.Series) != len(sweepKinds) {
		t.Fatalf("%d series", len(f.Series))
	}
	byLabel := map[string]Series{}
	for _, s := range f.Series {
		byLabel[s.Label] = s
	}
	cni, os, std := byLabel["CNI"], byLabel["Osiris"], byLabel["Standard"]
	last := len(cni.Y) - 1
	// At page-sized messages everyone approaches (never exceeds) the
	// 622 Mb/s link rate; at the smallest size the per-message host
	// costs order the interfaces.
	for _, s := range []Series{cni, os, std} {
		if s.Y[last] > 78 || s.Y[last] < 35 {
			t.Fatalf("%s: 4KB bandwidth %.1f MB/s outside 35-78", s.Label, s.Y[last])
		}
	}
	if !(cni.Y[0] > os.Y[0] && os.Y[0] > std.Y[0]) {
		t.Fatalf("small-message bandwidth not ordered: cni %.2f, osiris %.2f, std %.2f",
			cni.Y[0], os.Y[0], std.Y[0])
	}
}
