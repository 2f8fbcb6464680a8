package main

// Reduction of a CPU profile to per-layer shares, from the text that
// `go tool pprof -traces -lines` prints, so no profile parser is
// needed beyond the toolchain's own.

import (
	"bufio"
	"fmt"
	"os/exec"
	"path"
	"strings"
	"time"
)

// frame is one stack frame of a profile sample.
type frame struct{ fn, file string }

// stack is one sampled call stack, innermost frame first.
type stack struct {
	weight time.Duration
	frames []frame
}

// cpuLayers is the partition: every sample lands in exactly one of
// these, by its innermost frame in this module.
var cpuLayers = []string{
	"cpu.sim.kernel", "cpu.sim.proc", "cpu.sim.shard",
	"cpu.atm", "cpu.topo", "cpu.nic", "cpu.adc", "cpu.msgcache", "cpu.pathfinder",
	"cpu.memsys", "cpu.dsm", "cpu.apps", "cpu.collective",
	"cpu.rpc", "cpu.kv", "cpu.tenant", "cpu.workload", "cpu.cluster", "cpu.bench",
	"cpu.other", "cpu.runtime.gc", "cpu.runtime.other",
}

// cpuCrossCuts are reported beside the partition: a sample counts
// toward each one any of its frames matches.
var cpuCrossCuts = []string{"cpu.sim.handoff", "cpu.runtime.alloc", "cpu.runtime.preempt"}

// handoffFrames are the runtime's channel, select, park and scheduling
// entry points: the cost of handing control between a simulated
// processor's goroutine and the kernel.
var handoffFrames = []string{
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.gopark",
	"runtime.park_m", "runtime.schedule", "runtime.findRunnable", "runtime.goready",
	"runtime.ready", "runtime.mcall", "runtime.casgstatus", "runtime.lock2",
	"runtime.unlock2", "runtime.runqput", "runtime.runqget",
}

// gcFrames mark the collector's own goroutines and work loops.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone",
}

func hasPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// layerOf names the partition bucket of one stack: the package of its
// innermost frame in this module, with sim split by file; stacks with
// no such frame are the collector's or the rest of the runtime's. The
// benchmark's own frames count as cpu.bench: they are package main in
// the benchmark binary and cni/bench in its test binary.
func layerOf(frames []frame) string {
	for _, f := range frames {
		if strings.HasPrefix(f.fn, "main.") || strings.HasPrefix(f.fn, "cni/bench.") {
			return "cpu.bench"
		}
		rest, ok := strings.CutPrefix(f.fn, "cni/internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/") // apps/spmat counts as apps
		if pkg == "sim" {
			switch path.Base(f.file) {
			case "proc.go":
				return "cpu.sim.proc"
			case "shard.go":
				return "cpu.sim.shard"
			default:
				return "cpu.sim.kernel"
			}
		}
		name := "cpu." + pkg
		for _, l := range cpuLayers {
			if l == name {
				return name
			}
		}
		return "cpu.other"
	}
	for _, f := range frames {
		if hasPrefix(f.fn, gcFrames) {
			return "cpu.runtime.gc"
		}
	}
	return "cpu.runtime.other"
}

// crossCutsOf names the cross-cutting shares a stack counts toward.
func crossCutsOf(frames []frame) []string {
	var handoff, alloc, preempt bool
	for _, f := range frames {
		handoff = handoff || hasPrefix(f.fn, handoffFrames)
		alloc = alloc || strings.HasPrefix(f.fn, "runtime.mallocgc")
		preempt = preempt || strings.HasPrefix(f.fn, "runtime.asyncPreempt")
	}
	var out []string
	if handoff {
		out = append(out, "cpu.sim.handoff")
	}
	if alloc {
		out = append(out, "cpu.runtime.alloc")
	}
	if preempt {
		out = append(out, "cpu.runtime.preempt")
	}
	return out
}

// cpuShares reduces stacks to the partition and cross-cut shares of the
// total sampled time. With no samples every share is 0.
func cpuShares(stacks []stack) map[string]float64 {
	shares := map[string]float64{}
	for _, n := range append(append([]string(nil), cpuLayers...), cpuCrossCuts...) {
		shares[n] = 0
	}
	var total time.Duration
	for _, s := range stacks {
		total += s.weight
	}
	if total == 0 {
		return shares
	}
	for _, s := range stacks {
		w := float64(s.weight) / float64(total)
		shares[layerOf(s.frames)] += w
		for _, c := range crossCutsOf(s.frames) {
			shares[c] += w
		}
	}
	return shares
}

// parseTraces parses `go tool pprof -traces -lines` output. A sample
// starts with its weight and innermost frame; each further frame is on
// its own line; a dashed separator ends it. A frame line is
// "function path:line", optionally followed by "(inline)".
func parseTraces(text string) ([]stack, error) {
	var out []stack
	var cur *stack
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || (cur == nil && !strings.HasPrefix(line, " ")) {
			continue // header lines: File, Type, Time, Duration
		}
		if cur == nil {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample weight %q: %w", fields[0], err)
			}
			out = append(out, stack{weight: d})
			cur = &out[len(out)-1]
			fields = fields[1:]
		}
		if fields[len(fields)-1] == "(inline)" {
			fields = fields[:len(fields)-1]
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("pprof traces: frame line %q", line)
		}
		file, _, _ := strings.Cut(fields[len(fields)-1], ":")
		cur.frames = append(cur.frames, frame{fn: strings.Join(fields[:len(fields)-1], " "), file: file})
	}
	return out, sc.Err()
}

// reduceProfile runs the toolchain's pprof over a CPU profile file and
// returns the per-layer shares.
func reduceProfile(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", "-lines", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", profile, err)
	}
	stacks, err := parseTraces(string(out))
	if err != nil {
		return nil, err
	}
	return cpuShares(stacks), nil
}
