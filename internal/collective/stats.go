package collective

import "cni/internal/rpc"

// Stats counts one node's collective activity. Comparable with == (see
// rpc.Hist).
type Stats struct {
	// Episodes is the number of collectives this node entered.
	Episodes uint64
	// BoardCombined counts contributions combined by an Application
	// Interrupt Handler in board memory — traffic that never crossed
	// the host bus.
	BoardCombined uint64
	// HostHandled counts contributions processed by host protocol code
	// (the standard interface, or a CNI with NICCollectives off).
	HostHandled uint64
	// Msgs is the number of schedule messages this node transmitted.
	Msgs uint64
	// Latency samples enter-to-release time per episode, in CPU cycles.
	Latency rpc.Hist
}
