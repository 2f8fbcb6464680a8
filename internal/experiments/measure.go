package experiments

// The microbenchmark entry point. One Probe describes a latency,
// bandwidth or collective measurement; Measure runs it, and the
// figures (F14, FB1, FC1, FR1) submit the same probes as harness
// points, so a Measure call and the figure point of the same probe run
// the same machine under the same Config.

import (
	"fmt"

	"cni/internal/config"
)

// Metric selects what a Probe measures.
type Metric int

const (
	// MetricLatency is the warmed application-to-application latency of
	// one message of Probe.Size bytes, in nanoseconds (Figure 14's
	// microbenchmark; 100% Message Cache hit ratio on the CNI).
	MetricLatency Metric = iota
	// MetricBandwidth is the achieved streaming bandwidth of
	// Probe.Size-byte messages, in MB/s of simulated time.
	MetricBandwidth
	// MetricCollective is the mean per-episode latency of collective
	// Probe.Op on Probe.Nodes nodes, in nanoseconds (FC1's
	// microbenchmark).
	MetricCollective
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricLatency:
		return "latency"
	case MetricBandwidth:
		return "bandwidth"
	case MetricCollective:
		return "collective"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// Probe describes one microbenchmark measurement for Measure.
type Probe struct {
	// Metric selects the measurement.
	Metric Metric
	// Size is the message size in bytes (MetricLatency and
	// MetricBandwidth; latency admits 0 for an empty message,
	// bandwidth requires a positive size).
	Size int
	// Nodes is the fabric size for MetricCollective; 0 defaults to 2.
	Nodes int
	// Op is the collective operation for MetricCollective: "barrier",
	// "allreduce" or "allreduce-ring"; "" defaults to "barrier".
	Op string
	// Tweak, if non-nil, adjusts the configuration before the run
	// (ablations: disable transmit caching, force interrupts, inject
	// faults, ...).
	Tweak func(*config.Config)
}

// collectiveOps are the operations MetricCollective accepts.
var collectiveOps = map[string]bool{"barrier": true, "allreduce": true, "allreduce-ring": true}

// Measure runs one microbenchmark probe against the given interface
// and returns the measured value in the metric's unit (ns for
// MetricLatency and MetricCollective, MB/s for MetricBandwidth).
func Measure(kind config.NICKind, p Probe) (float64, error) {
	p = p.withDefaults()
	switch p.Metric {
	case MetricLatency, MetricBandwidth:
		if p.Size < 0 || (p.Metric == MetricBandwidth && p.Size == 0) {
			return 0, fmt.Errorf("experiments: %v probe with size %d (latency admits 0, bandwidth needs a positive size)", p.Metric, p.Size)
		}
		if p.Nodes != 2 {
			return 0, fmt.Errorf("experiments: %v probe is point-to-point, got Nodes=%d", p.Metric, p.Nodes)
		}
	case MetricCollective:
		if !collectiveOps[p.Op] {
			return 0, fmt.Errorf("experiments: unknown collective op %q", p.Op)
		}
		if p.Nodes < 2 {
			return 0, fmt.Errorf("experiments: collective probe needs at least 2 nodes, got %d", p.Nodes)
		}
	default:
		return 0, fmt.Errorf("experiments: unknown metric %v", p.Metric)
	}
	return Options{}.probePoint(kind, p).Wait(), nil
}

// withDefaults fills in a zero Nodes (2) and a collective's zero Op
// ("barrier").
func (p Probe) withDefaults() Probe {
	if p.Nodes == 0 {
		p.Nodes = 2
	}
	if p.Metric == MetricCollective && p.Op == "" {
		p.Op = "barrier"
	}
	return p
}

// probeConfig builds the fully-mutated Config probe p runs on; it
// doubles as the harness point's memoization identity.
func probeConfig(kind config.NICKind, p Probe) config.Config {
	cfg := config.ForNIC(kind)
	if p.Metric != MetricCollective {
		// The paper's best-case measurement has the receiving
		// application in its poll loop; widen the hybrid's poll window
		// so warmed rounds and streams stay in polling mode while the
		// fabric drains between arrivals. (The standard interface
		// always interrupts regardless.)
		cfg.PollSwitchRate = 1200
	}
	if p.Tweak != nil {
		p.Tweak(&cfg)
	}
	return cfg
}

// probePoint submits probe p on the given interface as a harness point
// that runs on o.Shards kernel shards.
func (o Options) probePoint(kind config.NICKind, p Probe) Future[float64] {
	p = p.withDefaults()
	cfg := probeConfig(kind, p)
	cfg.SimShards = o.Shards
	key := pointKey{cfg: cfg, n: p.Nodes, what: fmt.Sprintf("%v/%d/%s", p.Metric, p.Size, p.Op)}
	return submitPoint(o, key, func() float64 {
		switch p.Metric {
		case MetricLatency:
			return float64(measureLatency(cfg, p.Size))
		case MetricBandwidth:
			return measureBandwidth(cfg, p.Size)
		default:
			return float64(measureCollective(cfg, p.Nodes, p.Op))
		}
	})
}
