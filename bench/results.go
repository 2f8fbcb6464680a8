package main

// Results files, their comparison, and the committed baseline.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef is an end-to-end metric and the share of the base median
// by which it may worsen before a change counts as a regression. The
// same table is in BENCHMARK.json; a test keeps the two equal.
type metricDef struct {
	name, unit  string
	lowerBetter bool
	bound       float64
}

// The bounds are set from measured spreads, as README.md reports them:
// the timings of a shared host are not steadier than this.
var endToEndDefs = []metricDef{
	{"pass_s", "s", true, 0.25},
	{"events_per_s", "1/s", false, 0.25},
	{"setup_s", "s", true, 0.25},
	{"peak_rss_mb", "MB", true, 0.15},
}

type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

// currentHost describes this host and build. The commit is the VCS
// revision the toolchain stamped into the binary, marked -dirty when
// the tree had local changes, or "unknown" for an unstamped build.
func currentHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if modified {
			h.Commit += "-dirty"
		}
	}
	return h
}

// runRecord is one workload run as its process reported it.
type runRecord struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Digest    string             `json:"digest"`
	Counts    map[string]float64 `json:"counts"`
}

// resultsFile holds repeated runs of every workload, in run order.
type resultsFile struct {
	Host    hostInfo               `json:"host"`
	Seed    uint64                 `json:"seed"`
	Seconds int                    `json:"seconds"`
	Trace   bool                   `json:"trace"`
	Runs    map[string][]runRecord `json:"runs"`
}

func readResults(file string) (*resultsFile, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var r resultsFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return &r, nil
}

func (f *resultsFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs[workload] {
		if x, ok := r.Metrics[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(v, n=4) (the "exclusive" method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// stats summarizes one metric over a set of runs. Spread is the
// distance between the quartiles as a share of the median.
type stats struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

func summarize(v []float64) stats {
	q1, q3 := quartiles(v)
	m := median(v)
	return stats{N: len(v), Median: m, Q1: q1, Q3: q3, Spread: div(q3-q1, m)}
}

// verdict judges one metric of a change against its base, run by run
// in pairs (choosing-metrics §6 and §8): improved needs at least ten
// pairs, nine in ten of them won, and a median gap wider than the
// base's quartile spread; regressed is a median worse by more than the
// bound; a base spread wider than the bound leaves anything else
// unresolved, unless every run of the change beats every base run.
func verdict(d metricDef, base, change []float64) (v string, won, pairs int) {
	better := func(a, b float64) bool {
		if d.lowerBetter {
			return a < b
		}
		return a > b
	}
	pairs = min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], base[i]) {
			won++
		}
	}
	bs, cm := summarize(base), median(change)
	worse := div(cm-bs.Median, bs.Median)
	if !d.lowerBetter {
		worse = -worse
	}
	bLo, bHi := minMax(base)
	cLo, cHi := minMax(change)
	allBetter := len(base) > 0 && len(change) > 0 && ((d.lowerBetter && cHi < bLo) || (!d.lowerBetter && cLo > bHi))
	switch {
	case pairs >= 10 && float64(won) >= 0.9*float64(pairs) && better(cm, bs.Median) && math.Abs(cm-bs.Median) > bs.Q3-bs.Q1:
		return "improved", won, pairs
	case worse > d.bound:
		return "regressed", won, pairs
	case bs.Spread > d.bound && !allBetter:
		return "unresolved", won, pairs
	default:
		return "unchanged", won, pairs
	}
}

// compareResults prints, per workload and end-to-end metric, both
// sides' medians and quartiles, the pairs the change won and the
// verdict, then every exact count or digest that differs.
func compareResults(w io.Writer, base, change *resultsFile) {
	fmt.Fprintf(w, "%-13s %-13s %-34s %-34s %-9s %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEndDefs {
			b, c := base.values(wl.name, d.name), change.values(wl.name, d.name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, won, pairs := verdict(d, b, c)
			bs, cs := summarize(b), summarize(c)
			fmt.Fprintf(w, "%-13s %-13s %-34s %-34s %-9s %s\n", wl.name, d.name,
				fmt.Sprintf("%.6g [%.6g, %.6g]", bs.Median, bs.Q1, bs.Q3),
				fmt.Sprintf("%.6g [%.6g, %.6g]", cs.Median, cs.Q1, cs.Q3),
				fmt.Sprintf("%d/%d", won, pairs), v)
		}
	}
	for _, wl := range workloads {
		br, cr := base.Runs[wl.name], change.Runs[wl.name]
		if len(br) == 0 || len(cr) == 0 {
			continue
		}
		if br[0].Digest != cr[0].Digest {
			fmt.Fprintf(w, "%s: model_changed: digest %s -> %s\n", wl.name, br[0].Digest, cr[0].Digest)
		}
		for _, c := range exactCounts {
			if bv, cv := br[0].Counts[c.name], cr[0].Counts[c.name]; bv != cv {
				fmt.Fprintf(w, "%s: exact count %s changed: %g -> %g\n", wl.name, c.name, bv, cv)
			}
		}
	}
}

// printAcrossRuns summarizes every workload's end-to-end metrics over
// the runs of one invocation.
func printAcrossRuns(f *resultsFile) {
	fmt.Printf("\nacross runs (seed %d, %d s per run):\n", f.Seed, f.Seconds)
	for _, wl := range workloads {
		var attempted, failed int
		for _, r := range f.Runs[wl.name] {
			attempted += r.Attempted
			failed += r.Failed
		}
		for _, d := range endToEndDefs {
			v := f.values(wl.name, d.name)
			if len(v) == 0 {
				continue
			}
			s := summarize(v)
			lo, hi := minMax(v)
			fmt.Printf("  %-13s %-13s %-4s n=%-3d median %.6g  q1 %.6g  q3 %.6g  range %.6g–%.6g\n",
				wl.name, d.name, d.unit, s.N, s.Median, s.Q1, s.Q3, lo, hi)
		}
		fmt.Printf("  %-13s %-13s %-4s n=%-3d %g\n", wl.name, "failed_frac", "", attempted, div(float64(failed), float64(attempted)))
	}
}

// layersTable renders the first traced run of every workload as a
// markdown table, one row per per-layer metric.
func layersTable(f *resultsFile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Host: %d CPUs, GOMAXPROCS %d, %s %s, commit %s; seed %d, %d s per run.\n\n",
		f.Host.NumCPU, f.Host.GOMAXPROCS, f.Host.GoVersion, f.Host.OSArch, f.Host.Commit, f.Seed, f.Seconds)
	b.WriteString("| metric | unit |")
	sep := "|---|---|"
	for _, wl := range workloads {
		fmt.Fprintf(&b, " %s |", wl.name)
		sep += "---:|"
	}
	b.WriteString("\n" + sep + "\n")
	for _, m := range perLayerMetrics() {
		fmt.Fprintf(&b, "| `%s` | %s |", m.name, m.unit)
		for _, wl := range workloads {
			if runs := f.Runs[wl.name]; len(runs) > 0 {
				fmt.Fprintf(&b, " %.4g |", runs[0].Metrics[m.name])
			} else {
				b.WriteString(" |")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// baselineFile is the committed record of the parent commit's numbers:
// two sets of runs of one seed, summarized per workload and metric.
type baselineFile struct {
	Host    hostInfo                      `json:"host"`
	Seed    uint64                        `json:"seed"`
	Seconds int                           `json:"seconds"`
	Digests map[string]string             `json:"digests"`
	Sets    []map[string]map[string]stats `json:"sets"`
	// Gap is the distance between the two sets' medians as a share of
	// the first set's median; each must stay within the metric's bound.
	Gap map[string]map[string]float64 `json:"gap"`
}

// writeBaseline checks that two untraced results files of one seed are
// fit to be a baseline — every run correct, every digest and exact
// count identical, every median gap within its bound — and writes
// their summary.
func writeBaseline(w io.Writer, a, b *resultsFile) error {
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.Trace || b.Trace {
		return fmt.Errorf("baseline: the two files must be untraced runs of one seed and run length")
	}
	bl := baselineFile{Host: a.Host, Seed: a.Seed, Seconds: a.Seconds, Digests: map[string]string{}, Gap: map[string]map[string]float64{}}
	var problems []string
	for _, set := range []*resultsFile{a, b} {
		sum := map[string]map[string]stats{}
		for _, wl := range workloads {
			runs := set.Runs[wl.name]
			if len(runs) == 0 {
				problems = append(problems, wl.name+": no runs")
				continue
			}
			if _, ok := bl.Digests[wl.name]; !ok {
				bl.Digests[wl.name] = runs[0].Digest
			}
			for i, r := range runs {
				if !r.Correct {
					problems = append(problems, fmt.Sprintf("%s: run %d failed", wl.name, i+1))
				}
				if r.Digest != bl.Digests[wl.name] {
					problems = append(problems, fmt.Sprintf("%s: run %d digest %s differs", wl.name, i+1, r.Digest))
				}
				for _, c := range exactCounts {
					if r.Counts[c.name] != a.Runs[wl.name][0].Counts[c.name] {
						problems = append(problems, fmt.Sprintf("%s: run %d exact count %s differs", wl.name, i+1, c.name))
					}
				}
			}
			sum[wl.name] = map[string]stats{}
			for _, d := range endToEndDefs {
				sum[wl.name][d.name] = summarize(set.values(wl.name, d.name))
			}
		}
		bl.Sets = append(bl.Sets, sum)
	}
	for _, wl := range workloads {
		bl.Gap[wl.name] = map[string]float64{}
		for _, d := range endToEndDefs {
			m1, m2 := bl.Sets[0][wl.name][d.name].Median, bl.Sets[1][wl.name][d.name].Median
			gap := math.Abs(div(m2-m1, m1))
			bl.Gap[wl.name][d.name] = gap
			if gap >= d.bound {
				problems = append(problems, fmt.Sprintf("%s %s: set medians %.6g and %.6g differ by %.3f, bound %.2f", wl.name, d.name, m1, m2, gap, d.bound))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("baseline:\n  %s", strings.Join(problems, "\n  "))
	}
	out, err := json.MarshalIndent(&bl, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

//go:embed baseline.json
var baselineJSON []byte

// recordedDigest returns the model digest the baseline recorded for a
// workload at this run's seed, if it recorded one.
func recordedDigest(name string, o options) (string, bool) {
	var bl baselineFile
	if o.tiny || json.Unmarshal(baselineJSON, &bl) != nil || bl.Seed != o.seed {
		return "", false
	}
	d, ok := bl.Digests[name]
	return d, ok
}
