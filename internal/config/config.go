// Package config holds the machine model of the simulated workstation
// cluster: the parameters of Table 1 of the CNI paper, plus the handful
// of calibration constants the paper leaves implicit (per-cell NIC
// processing costs, kernel path costs). Everything downstream — caches,
// bus, ATM network, NIC boards, DSM — reads its costs from here, so a
// single Config fully determines a simulation.
//
// All simulation times are expressed in CPU cycles of the host
// processor (166 MHz in Table 1, so one cycle is ~6 ns); the conversion
// helpers on Config translate nanoseconds, bus cycles and NIC-processor
// cycles into CPU cycles.
package config

import (
	"fmt"
	"strings"

	"cni/internal/sim"
)

// NICKind selects the network interface model under test.
type NICKind int

// CollTopo selects the schedule the collective engine forwards
// contributions along (internal/collective).
type CollTopo int

const (
	// CollDissemination is the symmetric log-round schedule: in round r
	// every node signals rank+2^r and combines the contribution from
	// rank-2^r. Shortest critical path; N messages per round.
	CollDissemination CollTopo = iota
	// CollBinomial is a binomial tree: contributions combine up to a
	// root and the result broadcasts back down. 2(N-1) messages total.
	CollBinomial
)

// String implements fmt.Stringer.
func (t CollTopo) String() string {
	switch t {
	case CollDissemination:
		return "dissemination"
	case CollBinomial:
		return "binomial"
	default:
		return fmt.Sprintf("CollTopo(%d)", int(t))
	}
}

const (
	// NICStandard is the baseline of the paper: a kernel-mediated board
	// without Application Device Channels, Message Cache or Application
	// Interrupt Handlers. Sends go through the kernel, every transfer is
	// DMAed, every arrival raises a host interrupt, and the DSM protocol
	// runs on the host CPU.
	NICStandard NICKind = iota
	// NICCNI is the cluster network interface: ADC user-level queues,
	// Message Cache with snooping, PATHFINDER demultiplexing, and the
	// DSM protocol running in Application Interrupt Handler memory on
	// the board.
	NICCNI
	// NICOsiris is the OSIRIS-class interface the CNI derives from
	// (Druschel et al.'s Application Device Channels): the ADC transmit,
	// receive and free queues are mapped into user space, so sends and
	// dequeues cost the ADC enqueue/dequeue rather than a kernel path,
	// but the board has no Message Cache and no bus snooping — every
	// transmit DMAs — and every arrival interrupts the host.
	NICOsiris
)

// kindNames holds each interface model's flag-style name and
// series-label capitalization, in NICKind order.
var kindNames = [...]struct{ name, display string }{
	NICStandard: {"standard", "Standard"},
	NICCNI:      {"cni", "CNI"},
	NICOsiris:   {"osiris", "Osiris"},
}

// Kinds returns every interface model in NICKind order.
func Kinds() []NICKind {
	out := make([]NICKind, len(kindNames))
	for i := range out {
		out[i] = NICKind(i)
	}
	return out
}

// KindNames returns the flag-style names in NICKind order (for
// command-line usage strings).
func KindNames() []string {
	out := make([]string, len(kindNames))
	for i, n := range kindNames {
		out[i] = n.name
	}
	return out
}

// KindByName resolves a flag-style name ("cni", "standard", "osiris")
// to its selector.
func KindByName(name string) (NICKind, bool) {
	for i, n := range kindNames {
		if n.name == name {
			return NICKind(i), true
		}
	}
	return 0, false
}

// Registered reports whether k names one of the interface models.
func Registered(k NICKind) bool { return k >= 0 && int(k) < len(kindNames) }

// String implements fmt.Stringer.
func (k NICKind) String() string {
	if Registered(k) {
		return kindNames[k].name
	}
	return fmt.Sprintf("NICKind(%d)", int(k))
}

// Display returns the model's series-label capitalization ("CNI",
// "Osiris", "Standard") for figures and tables.
func (k NICKind) Display() string {
	if Registered(k) {
		return kindNames[k].display
	}
	return fmt.Sprintf("NICKind(%d)", int(k))
}

// Config is the complete machine description. The zero value is not
// valid; start from Default.
type Config struct {
	// --- Host processor and memory hierarchy (Table 1) ---

	// Cache, line and page sizes are powers of two (Validate).
	CPUFreqMHz          int64 // 166 MHz
	L1AccessCycles      int64 // 1 cycle, primary cache
	L1Bytes             int   // 32 KB unified
	L2AccessCycles      int64 // 10 cycles, secondary cache
	L2Bytes             int   // 1 MB unified
	CacheLineBytes      int   // direct-mapped, write-back
	MemoryLatencyCycles int64 // 20 cycles
	WordBytes           int   // 8 (64-bit Alpha words)

	// --- Memory bus (Table 1) ---

	BusFreqMHz         int64 // 25 MHz
	BusAcquireCycles   int64 // 4 bus cycles to win arbitration
	BusTransferPerWord int64 // 2 bus cycles per word
	DMASetupBusCycles  int64 // descriptor fetch + engine start, bus cycles

	// --- ATM interconnect (Table 1 + Section 3.4) ---

	SwitchPorts      int   // 32-port banyan switch
	SwitchLatencyNS  int64 // 500 ns per switch traversal
	LinkMbps         int64 // 622 Mb/s (STS-12)
	WirePropNS       int64 // 150 ns propagation ("network latency")
	CellBytes        int   // 53-byte ATM cells
	CellPayloadBytes int   // 48 bytes of payload per cell
	UnrestrictedCell bool  // Table 5's mythical no-fragmentation ATM

	// --- Fabric topology (internal/topo) ---

	// Topology selects the switching fabric: TopoSingle is the paper's
	// one output-queued banyan switch (the default, capped at
	// SwitchPorts nodes); TopoClos is a three-level k-ary fat-tree with
	// deterministic d-mod-k path selection; TopoTorus is a 3D torus
	// with dimension-order routing. The empty string means TopoSingle.
	Topology string
	// ClosRadix is the fat-tree switch radix k (even, >= 4); the tree
	// supports k^3/4 hosts. 0 picks the smallest radix that fits the
	// node count.
	ClosRadix int
	// TorusDims are the torus dimensions (X, Y, Z); the torus supports
	// X*Y*Z hosts. All zero picks near-cubic dimensions that fit the
	// node count.
	TorusDims [3]int

	// --- Network interface (Table 1 + calibration) ---

	NICFreqMHz       int64 // 33 MHz on-board processor
	InterruptNS      int64 // host interrupt delivery + dispatch cost (20 us)
	MessageCacheByte int   // 32 KB Message Cache
	BoardMemoryBytes int   // 1 MB dual-ported memory on the OSIRIS board

	// Per-message and per-cell firmware costs, in NIC-processor cycles.
	NICCellTxCycles   int64 // segmentation work per transmitted cell
	NICCellRxCycles   int64 // reassembly work per received cell
	NICPacketTxCycles int64 // fixed transmit-path work per packet
	NICPacketRxCycles int64 // fixed receive-path work per packet

	// PATHFINDER hardware classification cost per packet, NIC cycles,
	// and the software-classification alternative used for ablation.
	PathfinderCycles     int64
	SoftwareClassifyNS   int64 // software classifier, poor i-cache case
	UseSoftwareClassifer bool  // ablation: classify in NIC software

	// Host-side path costs, nanoseconds.
	KernelSendNS int64 // syscall + kernel protocol, standard send path
	KernelRecvNS int64 // kernel receive path after interrupt
	ADCSendNS    int64 // user-level enqueue on a device channel
	ADCRecvNS    int64 // user-level dequeue from a device channel
	PollNS       int64 // one poll of the receive/free queues

	// Receive-path policy. The CNI uses a poll/interrupt hybrid: above
	// PollSwitchRate arrivals per second the host polls, below it the
	// board interrupts. PureInterrupt forces interrupts (ablation).
	PollSwitchRate float64
	PureInterrupt  bool

	// --- DSM protocol costs ---

	PageBytes        int   // shared page size, a power of two (2 KB in Table 2's runs)
	AIHHandlerCycles int64 // protocol handler on the NIC, NIC cycles
	HostProtocolNS   int64 // protocol handler on the host CPU, ns
	LocalOpCycles    int64 // protocol op handled on the local node, CPU cycles
	NoticeCycles     int64 // per-write-notice processing, CPU cycles
	DiffWordCycles   int64 // per-word diff create/apply cost, CPU cycles
	// UpdateProtocol switches the DSM from the paper's lazy invalidate
	// protocol to an eager-update variant: homes forward incoming
	// diffs to every node holding a copy instead of letting copies go
	// stale. The paper chose invalidate "because it has been shown
	// that invalidate protocols work best in low overhead
	// environments"; this knob lets the claim be measured.
	UpdateProtocol bool
	// DSMOwnership selects how page ownership is managed: DSMCentral
	// (the default, empty string included) keeps every page's manager
	// at its static home, while DSMDistributed runs the Li/Hudak
	// dynamic distributed manager — per-page probable-owner chains
	// with request forwarding and ownership migration on write faults,
	// plus manager-free distribution of the barrier metadata. On the
	// CNI the forwarding/ownership handlers run as AIHs on the board;
	// elsewhere they pay the host interrupt + kernel path.
	DSMOwnership string

	ReceiveCaching      bool // CNI receive caching (page migration)
	TransmitCaching     bool // CNI transmit caching
	ConsistencySnooping bool // CNI bus snooping into the Message Cache

	// --- Collective engine (internal/collective) ---

	// --- NIC-resident KV response cache (internal/kv) ---

	// NICResponseCache lets the KV service keep recently served GET
	// responses pinned in the Message Cache and answer repeat GETs
	// from a board-resident screening handler: no DMA, no interrupt,
	// no host server involvement. It needs a Message Cache and
	// board-resident handlers, so the OSIRIS and standard models turn
	// it off and always pay the host path.
	NICResponseCache bool
	// ResponseCacheFrames caps how many Message Cache frames the
	// response cache may pin at once (0 = a quarter of the MC frames),
	// bounding how much of the cache serving can steal from messaging.
	ResponseCacheFrames int

	// NICCollectives runs barrier/broadcast/reduce/all-reduce as
	// Application Interrupt Handlers on the CNI board: arriving
	// contributions are combined in board memory by the receive
	// processor and forwarded without crossing the host bus. It also
	// gates the DSM barrier onto the engine. With it off (or on the
	// standard interface) the identical schedule runs through host
	// interrupts and host handlers.
	NICCollectives bool
	// CollTopology is the schedule barriers and power-of-two
	// all-reduces follow; reduce and broadcast are always binomial.
	CollTopology CollTopo

	// --- Fault injection (internal/atm) and per-VC reliability ---

	// The fabric is lossless by default (all rates zero); the injector
	// and the go-back-N retransmission machinery activate only when a
	// fault knob is nonzero, so fault-free runs are bit-identical to a
	// build without this layer.

	// FaultSeed seeds the per-link fault RNGs; two runs with the same
	// Config (including FaultSeed) inject the identical fault sequence.
	FaultSeed uint64
	// CellLossRate is the probability that one transmitted cell is
	// dropped by the fabric. A lost end-of-PDU cell makes the whole PDU
	// vanish at the receiver; any other lost cell is a CRC-failed PDU.
	CellLossRate float64
	// CellCorruptRate is the probability that one cell's payload is
	// corrupted in flight (detected by the AAL5 CRC-32 at reassembly).
	CellCorruptRate float64
	// CellDupRate is the probability that a cell is duplicated by the
	// fabric, which surfaces as a duplicated PDU the receive side must
	// discard by sequence number.
	CellDupRate float64
	// ReorderWindow bounds delivery reorder: each PDU may slip up to
	// this many cell-times past its nominal arrival. 0 disables.
	ReorderWindow int

	// Go-back-N retransmission (active only when a fault knob is set).
	RetransmitWindow    int   // unacked PDUs retained per VC
	RetransmitTimeoutNS int64 // base retransmit timeout
	RetransmitBackoff   int64 // max timeout multiplier (exponential backoff cap)
	NICRetransmitCycles int64 // board-side cost per retransmitted PDU, NIC cycles

	// --- Simulation ---

	NIC  NICKind
	Seed uint64

	// SimShards splits one run across this many conservative-parallel
	// kernel shards advancing in lock-stepped lookahead windows (see
	// DESIGN.md §2.2). 0 (the default) runs the plain single kernel;
	// 1 runs the sharded driver with one shard, which isolates the
	// windowing overhead from the parallelism. Sharding is a host-side
	// execution strategy only: simulated behavior, all statistics, and
	// rendered output are bit-identical at every shard count. Runs whose
	// model needs zero-lookahead cross-node access (DSM page copies)
	// clamp back to the single kernel.
	SimShards int
}

// FaultsEnabled reports whether any fault-injection knob is nonzero;
// the fabric injector and the NIC reliability layer exist only then.
func (c *Config) FaultsEnabled() bool {
	return c.CellLossRate > 0 || c.CellCorruptRate > 0 || c.CellDupRate > 0 || c.ReorderWindow > 0
}

// Default returns the Table 1 machine with the paper's CNI features
// enabled and the calibration constants documented in DESIGN.md. It is
// shorthand for ForNIC(NICCNI).
func Default() Config { return ForNIC(NICCNI) }

// Standard returns the Table 1 machine with the baseline interface:
// ForNIC(NICStandard).
func Standard() Config { return ForNIC(NICStandard) }

// ForNIC returns the default configuration for the given interface —
// the single source of truth Default and Standard wrap. All models
// share every Table 1 parameter and calibration constant; they differ
// only in the NIC selector and the five board features only the CNI
// has, which every other model turns off: ReceiveCaching,
// TransmitCaching, ConsistencySnooping (the Message Cache and its bus
// snooper), NICResponseCache (the board-served KV responses) and
// NICCollectives (the board-resident collective engine).
func ForNIC(kind NICKind) Config {
	c := Config{
		CPUFreqMHz:          166,
		L1AccessCycles:      1,
		L1Bytes:             32 << 10,
		L2AccessCycles:      10,
		L2Bytes:             1 << 20,
		CacheLineBytes:      32,
		MemoryLatencyCycles: 20,
		WordBytes:           8,

		BusFreqMHz:         25,
		BusAcquireCycles:   4,
		BusTransferPerWord: 2,
		DMASetupBusCycles:  8,

		SwitchPorts:      32,
		SwitchLatencyNS:  500,
		LinkMbps:         622,
		WirePropNS:       150,
		CellBytes:        53,
		CellPayloadBytes: 48,

		Topology: TopoSingle,

		NICFreqMHz:       33,
		InterruptNS:      20_000, // 20 us: see DESIGN.md on Table 1's lost prefixes
		MessageCacheByte: 32 << 10,
		BoardMemoryBytes: 1 << 20,

		NICCellTxCycles:   4,
		NICCellRxCycles:   4,
		NICPacketTxCycles: 40,
		NICPacketRxCycles: 40,

		PathfinderCycles:   8,
		SoftwareClassifyNS: 2_000,

		KernelSendNS: 6_000,
		KernelRecvNS: 6_000,
		ADCSendNS:    400,
		ADCRecvNS:    400,
		PollNS:       500,

		PollSwitchRate: 10_000, // arrivals/s above which the host polls

		PageBytes:           2048,
		AIHHandlerCycles:    60,
		HostProtocolNS:      3_000,
		LocalOpCycles:       150,
		NoticeCycles:        40,
		DiffWordCycles:      2,
		ReceiveCaching:      true,
		TransmitCaching:     true,
		ConsistencySnooping: true,

		NICResponseCache: true,

		NICCollectives: true,
		CollTopology:   CollDissemination,

		FaultSeed:           1,
		RetransmitWindow:    8,
		RetransmitTimeoutNS: 200_000, // 200 us, comfortably above a loaded RTT
		RetransmitBackoff:   16,
		NICRetransmitCycles: 24,

		NIC:  NICCNI,
		Seed: 1,
	}
	if !Registered(kind) {
		panic(fmt.Sprintf("config: ForNIC(%v): unknown NIC kind", kind))
	}
	c.NIC = kind
	if kind != NICCNI {
		c.ReceiveCaching = false
		c.TransmitCaching = false
		c.ConsistencySnooping = false
		c.NICResponseCache = false
		c.NICCollectives = false
	}
	return c
}

// The registered fabric topologies (package topo implements them; the
// names live here so config does not import its consumer).
const (
	// TopoSingle is the paper's fabric: one output-queued banyan switch
	// of SwitchPorts ports.
	TopoSingle = "single"
	// TopoClos is a three-level k-ary fat-tree (k = ClosRadix) with
	// deterministic d-mod-k upward path selection.
	TopoClos = "clos"
	// TopoTorus is a 3D torus (dimensions TorusDims) with
	// deadlock-free dimension-order routing.
	TopoTorus = "torus"
)

// TopoNames lists the registered topology names for command-line usage
// strings.
func TopoNames() []string { return []string{TopoSingle, TopoClos, TopoTorus} }

// TopologyOrDefault resolves the empty topology selector to TopoSingle.
func (c *Config) TopologyOrDefault() string {
	if c.Topology == "" {
		return TopoSingle
	}
	return c.Topology
}

// The registered DSM ownership modes (package dsm implements them; the
// names live here so config does not import its consumer).
const (
	// DSMCentral is the home-based protocol of the paper's runs: every
	// page's manager is its static home node, fixed for the whole run.
	DSMCentral = "central"
	// DSMDistributed is the Li/Hudak dynamic distributed manager:
	// ownership migrates to write-faulting nodes along per-page
	// probable-owner chains, and requests are forwarded hop by hop
	// (with path compression) instead of through a fixed manager.
	DSMDistributed = "distributed"
)

// DSMOwnershipNames lists the registered ownership modes for
// command-line usage strings.
func DSMOwnershipNames() []string { return []string{DSMCentral, DSMDistributed} }

// DSMOwnershipOrDefault resolves the empty ownership selector to
// DSMCentral.
func (c *Config) DSMOwnershipOrDefault() string {
	if c.DSMOwnership == "" {
		return DSMCentral
	}
	return c.DSMOwnership
}

// MaxNodes is the number of nodes the ATM virtual-circuit namespace can
// address: internal/nic packs the source and destination node ids into
// 16-bit lanes of the 32-bit VCI.
const MaxNodes = 1 << 16

// ValidateNodes rejects cluster sizes the VC namespace cannot address.
// Fabric constructors call it so an oversized node id can never
// silently collide two virtual circuits.
func ValidateNodes(n int) error {
	if n < 1 || n > MaxNodes {
		return fmt.Errorf("config: %d nodes outside 1..%d", n, MaxNodes)
	}
	return nil
}

// Validate reports the first inconsistency in the configuration.
func (c *Config) Validate() error {
	switch {
	case !Registered(c.NIC):
		return fmt.Errorf("config: unknown NIC kind %d", int(c.NIC))
	case c.CPUFreqMHz <= 0:
		return fmt.Errorf("config: CPU frequency %d MHz", c.CPUFreqMHz)
	case c.BusFreqMHz <= 0 || c.BusFreqMHz > c.CPUFreqMHz:
		return fmt.Errorf("config: bus frequency %d MHz vs CPU %d MHz", c.BusFreqMHz, c.CPUFreqMHz)
	case c.NICFreqMHz <= 0:
		return fmt.Errorf("config: NIC frequency %d MHz", c.NICFreqMHz)
	case c.WordBytes <= 0 || c.CacheLineBytes < c.WordBytes || !powerOfTwo(c.CacheLineBytes):
		return fmt.Errorf("config: %d-byte lines of %d-byte words (lines must be a power of two)", c.CacheLineBytes, c.WordBytes)
	case !powerOfTwo(c.L1Bytes) || !powerOfTwo(c.L2Bytes) || c.L2Bytes < c.L1Bytes:
		return fmt.Errorf("config: L1 %d bytes, L2 %d bytes (both must be powers of two, L2 >= L1)", c.L1Bytes, c.L2Bytes)
	case !powerOfTwo(c.PageBytes) || c.PageBytes%c.WordBytes != 0:
		return fmt.Errorf("config: page size %d not a power-of-two multiple of word size %d", c.PageBytes, c.WordBytes)
	case c.CellPayloadBytes <= 0 || c.CellBytes < c.CellPayloadBytes:
		return fmt.Errorf("config: cell %d bytes with %d payload", c.CellBytes, c.CellPayloadBytes)
	case c.MessageCacheByte < 0 || c.MessageCacheByte > c.BoardMemoryBytes:
		return fmt.Errorf("config: message cache %d bytes exceeds board memory %d", c.MessageCacheByte, c.BoardMemoryBytes)
	case c.ResponseCacheFrames < 0:
		return fmt.Errorf("config: response cache frames %d negative", c.ResponseCacheFrames)
	case c.NICResponseCache && c.MessageCacheByte <= 0:
		return fmt.Errorf("config: NIC response cache needs a Message Cache")
	case c.LinkMbps <= 0:
		return fmt.Errorf("config: link rate %d Mb/s", c.LinkMbps)
	case c.SwitchPorts < 2:
		return fmt.Errorf("config: %d-port switch", c.SwitchPorts)
	case c.TopologyOrDefault() != TopoSingle && c.TopologyOrDefault() != TopoClos &&
		c.TopologyOrDefault() != TopoTorus:
		return fmt.Errorf("config: unknown topology %q (%s)", c.Topology, strings.Join(TopoNames(), " | "))
	case c.ClosRadix != 0 && (c.ClosRadix < 4 || c.ClosRadix%2 != 0):
		return fmt.Errorf("config: clos radix %d must be an even number >= 4", c.ClosRadix)
	case c.TorusDims != [3]int{} && (c.TorusDims[0] < 1 || c.TorusDims[1] < 1 || c.TorusDims[2] < 1):
		return fmt.Errorf("config: torus dimensions %v must all be >= 1", c.TorusDims)
	case c.CollTopology != CollDissemination && c.CollTopology != CollBinomial:
		return fmt.Errorf("config: unknown collective topology %d", int(c.CollTopology))
	case c.DSMOwnershipOrDefault() != DSMCentral && c.DSMOwnershipOrDefault() != DSMDistributed:
		return fmt.Errorf("config: unknown DSM ownership %q (%s)", c.DSMOwnership, strings.Join(DSMOwnershipNames(), " | "))
	case c.UpdateProtocol && c.DSMOwnershipOrDefault() == DSMDistributed:
		return fmt.Errorf("config: the eager-update protocol requires central ownership (copysets do not migrate)")
	case c.CellLossRate < 0 || c.CellLossRate >= 1:
		return fmt.Errorf("config: cell loss rate %g outside [0,1)", c.CellLossRate)
	case c.CellCorruptRate < 0 || c.CellCorruptRate >= 1:
		return fmt.Errorf("config: cell corrupt rate %g outside [0,1)", c.CellCorruptRate)
	case c.CellDupRate < 0 || c.CellDupRate >= 1:
		return fmt.Errorf("config: cell dup rate %g outside [0,1)", c.CellDupRate)
	case c.SimShards < 0:
		return fmt.Errorf("config: SimShards %d must be >= 0", c.SimShards)
	case c.ReorderWindow < 0:
		return fmt.Errorf("config: reorder window %d", c.ReorderWindow)
	}
	if c.FaultsEnabled() {
		switch {
		case c.RetransmitWindow <= 0:
			return fmt.Errorf("config: faults enabled with retransmit window %d", c.RetransmitWindow)
		case c.RetransmitTimeoutNS <= 0:
			return fmt.Errorf("config: faults enabled with retransmit timeout %d ns", c.RetransmitTimeoutNS)
		case c.RetransmitBackoff < 1:
			return fmt.Errorf("config: retransmit backoff cap %d below 1", c.RetransmitBackoff)
		}
	}
	return nil
}

// powerOfTwo reports whether n is a positive power of two. The cache
// model indexes its lines with a mask and the DSM finds a word's page
// with a shift, so cache, line and page sizes must all be powers of
// two (which makes the words per page one as well).
func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// --- Unit conversions. All return host CPU cycles. ---

// NSToCycles converts nanoseconds to CPU cycles, rounding up so that
// no modeled cost silently becomes free.
func (c *Config) NSToCycles(ns int64) sim.Time {
	return sim.Time((ns*c.CPUFreqMHz + 999) / 1000)
}

// CyclesToNS converts CPU cycles to nanoseconds (rounded down).
func (c *Config) CyclesToNS(cy sim.Time) int64 {
	return int64(cy) * 1000 / c.CPUFreqMHz
}

// BusToCPU converts bus cycles to CPU cycles, rounding up.
func (c *Config) BusToCPU(busCycles int64) sim.Time {
	return sim.Time((busCycles*c.CPUFreqMHz + c.BusFreqMHz - 1) / c.BusFreqMHz)
}

// NICToCPU converts NIC-processor cycles to CPU cycles, rounding up.
func (c *Config) NICToCPU(nicCycles int64) sim.Time {
	return sim.Time((nicCycles*c.CPUFreqMHz + c.NICFreqMHz - 1) / c.NICFreqMHz)
}

// Words returns the number of bus words needed to carry b bytes.
func (c *Config) Words(b int) int64 {
	return int64((b + c.WordBytes - 1) / c.WordBytes)
}

// DMACycles returns the CPU cycles a DMA of b bytes occupies the memory
// bus: arbitration, descriptor setup, then the word transfers.
func (c *Config) DMACycles(b int) sim.Time {
	bus := c.BusAcquireCycles + c.DMASetupBusCycles + c.Words(b)*c.BusTransferPerWord
	return c.BusToCPU(bus)
}

// Cells returns the number of ATM cells needed to carry b payload
// bytes (at least one: even an empty message occupies a cell). With
// UnrestrictedCell set, everything fits one mythical cell.
func (c *Config) Cells(b int) int {
	if c.UnrestrictedCell {
		return 1
	}
	n := (b + c.CellPayloadBytes - 1) / c.CellPayloadBytes
	if n == 0 {
		n = 1
	}
	return n
}

// WireBytes returns the bytes actually serialized on the link for a
// b-byte message, including per-cell header overhead.
func (c *Config) WireBytes(b int) int {
	if c.UnrestrictedCell {
		header := c.CellBytes - c.CellPayloadBytes
		return b + header
	}
	return c.Cells(b) * c.CellBytes
}

// SerializeCycles returns the CPU cycles needed to clock b message
// bytes (plus cell overhead) onto the link.
func (c *Config) SerializeCycles(b int) sim.Time {
	bits := int64(c.WireBytes(b)) * 8
	ns := (bits*1000 + c.LinkMbps - 1) / c.LinkMbps
	return c.NSToCycles(ns)
}

// InterruptCycles is the host interrupt cost in CPU cycles.
func (c *Config) InterruptCycles() sim.Time { return c.NSToCycles(c.InterruptNS) }

// Pages returns the number of shared-memory pages covering b bytes.
func (c *Config) Pages(b int) int {
	return (b + c.PageBytes - 1) / c.PageBytes
}

// Table1 renders the configuration in the shape of the paper's Table 1,
// followed by the calibration constants this reproduction adds.
func (c *Config) Table1() string {
	var b strings.Builder
	row := func(k, v string) { fmt.Fprintf(&b, "%-34s %s\n", k, v) }
	row("CPU Frequency", fmt.Sprintf("%d MHz", c.CPUFreqMHz))
	row("Primary Cache Access Time", fmt.Sprintf("%d cycle(s)", c.L1AccessCycles))
	row("Primary Cache Size", fmt.Sprintf("%dK unified", c.L1Bytes>>10))
	row("Secondary Cache Access Time", fmt.Sprintf("%d cycles", c.L2AccessCycles))
	row("Secondary Cache Size", fmt.Sprintf("%d MB unified", c.L2Bytes>>20))
	row("Cache Organization", "Direct-mapped")
	row("Cache Policy", "Write-back")
	row("Memory Latency", fmt.Sprintf("%d cycles", c.MemoryLatencyCycles))
	row("Bus Acquisition Time", fmt.Sprintf("%d cycles", c.BusAcquireCycles))
	row("Bus Transfer Rate", fmt.Sprintf("%d cycles per word", c.BusTransferPerWord))
	row("Bus Frequency", fmt.Sprintf("%d MHz", c.BusFreqMHz))
	row("Switch Latency", fmt.Sprintf("%d ns", c.SwitchLatencyNS))
	row("Network Processor Frequency", fmt.Sprintf("%d MHz", c.NICFreqMHz))
	row("Network Latency", fmt.Sprintf("%d ns", c.WirePropNS))
	row("Interrupt Latency", fmt.Sprintf("%d us", c.InterruptNS/1000))
	row("Message Cache Size", fmt.Sprintf("%d KB", c.MessageCacheByte>>10))
	return b.String()
}
