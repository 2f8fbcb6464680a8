// Command bench is the simulator's benchmark: five workloads that each
// stress different layers of the CNI simulator, timed in host time,
// with every pass checked for correctness. See README.md. From the
// repository root (bench/run.sh builds it and passes the flags on):
//
//	bash bench/run.sh                              every workload, each in a fresh process
//	bash bench/run.sh -workload serve-rpc          one workload in this process
//	bash bench/run.sh -trace 1 -out DIR            traced runs: per-layer metrics, profiles, spans
//	bash bench/run.sh -runs 10 -json new.json      repeated runs, added to a results file
//	bash bench/run.sh -compare base.json new.json  verdict per workload and metric
//	bash bench/run.sh -baseline a.json b.json      the baseline record of two sets of runs
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// minPasses is the fewest timed passes an untraced run makes, however
// long they take, so the slowest workload still gets several chances at
// an undisturbed pass.
const minPasses = 4

type options struct {
	seed    uint64
	seconds int
	trace   bool
	out     string
	tiny    bool // test-sized workloads and unit-cost samples
}

func main() {
	var (
		o        options
		name     = flag.String("workload", "", "run one workload in this process (default: every workload, each in a fresh process)")
		traceOn  = flag.Int("trace", 0, "1 makes a traced run that reports the per-layer metrics instead of the end-to-end ones")
		runs     = flag.Int("runs", 1, "runs of every workload, in rotation (without -workload)")
		jsonOut  = flag.String("json", "", "add every run's results to this file (without -workload)")
		compare  = flag.Bool("compare", false, "compare two results files: -compare base.json new.json")
		baseline = flag.Bool("baseline", false, "print the baseline record of two results files: -baseline a.json b.json")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 15, "seconds of timed passes per run")
	flag.StringVar(&o.out, "out", ".bench_build/trace", "where traced runs write profiles, spans and layer tables")
	flag.Parse()
	o.trace = *traceOn == 1

	switch {
	case *traceOn != 0 && *traceOn != 1, o.seconds < 1, *runs < 1:
		fail(2, "-trace takes 0 or 1, -seconds and -runs at least 1")
	case *compare || *baseline:
		if flag.NArg() != 2 {
			fail(2, "-compare and -baseline take two results files")
		}
		a, err := readResults(flag.Arg(0))
		if err != nil {
			fail(2, err.Error())
		}
		b, err := readResults(flag.Arg(1))
		if err != nil {
			fail(2, err.Error())
		}
		if *compare {
			compareResults(os.Stdout, a, b)
			return
		}
		if err := writeBaseline(os.Stdout, a, b); err != nil {
			fail(1, err.Error())
		}
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fail(2, fmt.Sprintf("unknown workload %q", *name))
		}
		if !runOne(w, o) {
			os.Exit(1)
		}
	default:
		if !runAll(o, *runs, *jsonOut) {
			os.Exit(1)
		}
	}
}

func fail(code int, msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(code)
}

// result is the last line of a workload run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// modelLine carries a run's model digest and exact counts to the
// process that started it; it precedes the result line.
type modelLine struct {
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts"`
}

const modelPrefix = "model: "

// runOne runs workload w in this process, prints its metrics, and
// reports whether every pass succeeded. The last line of standard
// output is the result as JSON.
func runOne(w benchWorkload, o options) bool {
	var (
		res     *result
		samples []sample
		model   outcome
	)
	if o.trace {
		var err error
		res, samples, model, err = traceOne(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: traced run of %s: %v\n", w.name, err)
			return false
		}
		fmt.Printf("%s (traced): seed %d, %d passes attempted, %d failed; profile, spans and layers in %s\n",
			w.name, o.seed, res.Attempted, res.Failed, filepath.Join(o.out, w.name))
		for _, m := range samples {
			fmt.Printf("  %-24s %-8s %.6g\n", m.name, m.unit, m.value)
		}
	} else {
		s := &session{name: w.name, build: w.inputs(o.seed, o.tiny), log: os.Stderr}
		s.warmUp()
		passes := s.timed(w.shards, time.Duration(o.seconds)*time.Second, minPasses)
		samples = endToEnd(passes, s.setups(w.shards, passes), s.clockScale())
		res = &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
		fmt.Printf("%s: seed %d, shards %d, %d passes attempted (1 warm-up), %d failed; clock scale %.4f\n",
			w.name, o.seed, w.shards, s.attempted, s.failed, s.clockScale())
		for _, m := range samples {
			lo, hi := minMax(m.values)
			fmt.Printf("  %-13s %-5s n=%-3d %.6g  (as measured: median %.6g, range %.6g–%.6g)\n",
				m.name, m.unit, len(m.values), m.value, median(m.values), lo, hi)
			res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
		}
		fmt.Printf("  %-13s %-5s n=%-3d %g\n", "failed_frac", "ratio", s.attempted, float64(s.failed)/float64(s.attempted))
		if len(passes) > 0 {
			model = passes[len(passes)-1].out
		}
	}
	// A changed model is news for whoever reviews the change, not a
	// failure: the run itself was still deterministic.
	if rec, ok := recordedDigest(w.name, o); ok && model.counts != nil && digestString(model.digest) != rec {
		fmt.Printf("  model_changed: digest %s, recorded %s\n", digestString(model.digest), rec)
	}
	mline, err := json.Marshal(modelLine{Digest: digestString(model.digest), Counts: model.counts})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return false
	}
	fmt.Println(modelPrefix + string(mline))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return false
	}
	fmt.Println(string(line))
	return res.Correct
}

func digestString(d uint64) string { return fmt.Sprintf("%016x", d) }

func minMax(v []float64) (lo, hi float64) {
	for i, x := range v {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// runAll runs every workload in rotation, each run in a fresh process
// of this program so peak memory and heap state belong to one workload
// alone, and one process at a time so runs never share the CPUs.
func runAll(o options, runs int, jsonOut string) bool {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return false
	}
	file := resultsFile{Host: currentHost(), Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Runs: map[string][]runRecord{}}
	// An existing results file of the same settings gains these runs, so
	// two commits' benchmarks can be run in alternation into two files.
	if jsonOut != "" {
		if old, err := readResults(jsonOut); err == nil {
			if old.Seed != file.Seed || old.Seconds != file.Seconds || old.Trace != file.Trace {
				fmt.Fprintf(os.Stderr, "bench: %s holds runs of other settings\n", jsonOut)
				return false
			}
			maps.Copy(file.Runs, old.Runs)
		} else if !errors.Is(err, fs.ErrNotExist) {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return false
		}
	}
	ok := true
	for r := 0; r < runs; r++ {
		for _, w := range workloads {
			rec, err := runChild(exe, w.name, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d: %v\n", w.name, r+1, err)
				ok = false
				continue
			}
			ok = ok && rec.Correct
			file.Runs[w.name] = append(file.Runs[w.name], rec)
		}
	}
	if len(file.Runs[workloads[0].name]) > 1 {
		printAcrossRuns(&file)
	}
	if o.trace {
		table := layersTable(&file)
		fmt.Print(table)
		if err := os.WriteFile(filepath.Join(o.out, "layers.md"), []byte(table), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			ok = false
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, &file); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			ok = false
		}
	}
	return ok
}

// runChild runs one workload in a child process, echoes its report and
// parses its model and result lines.
func runChild(exe, name string, o options) (runRecord, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", map[bool]string{false: "0", true: "1"}[o.trace], "-out", o.out)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var rec runRecord
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, modelPrefix):
			var m modelLine
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, modelPrefix)), &m); err != nil {
				return rec, fmt.Errorf("model line: %w", err)
			}
			rec.Digest, rec.Counts = m.Digest, m.Counts
		case strings.HasPrefix(line, "{"):
			last = line
		default:
			fmt.Println(line)
		}
	}
	if last == "" {
		return rec, fmt.Errorf("no result line (exit: %v)", runErr)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	rec.Correct, rec.Attempted, rec.Failed = res.Correct, res.Attempted, res.Failed
	rec.Metrics = map[string]float64{}
	for k, m := range res.Metrics {
		rec.Metrics[k] = m.Value
	}
	return rec, nil
}
