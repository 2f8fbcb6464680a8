package config

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestDefaultValidates(t *testing.T) {
	for _, c := range []Config{Default(), Standard()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%v config invalid: %v", c.NIC, err)
		}
	}
}

func TestStandardDisablesCNIFeatures(t *testing.T) {
	c := Standard()
	if c.NIC != NICStandard {
		t.Fatalf("NIC = %v", c.NIC)
	}
	if c.TransmitCaching || c.ReceiveCaching || c.ConsistencySnooping {
		t.Fatal("standard interface must not have Message Cache features")
	}
	if ForNIC(NICStandard).NIC != NICStandard || ForNIC(NICCNI).NIC != NICCNI {
		t.Fatal("ForNIC returned wrong kind")
	}
}

func TestOsirisDisablesCNIFeatures(t *testing.T) {
	c := ForNIC(NICOsiris)
	if c.NIC != NICOsiris {
		t.Fatalf("NIC = %v", c.NIC)
	}
	if c.TransmitCaching || c.ReceiveCaching || c.ConsistencySnooping || c.NICCollectives {
		t.Fatal("OSIRIS baseline must not have Message Cache or collective features")
	}
}

// TestOnlyCNIHasCNIFeatures: ForNIC turns the five board features only
// the CNI has on for the CNI and off for every other model.
func TestOnlyCNIHasCNIFeatures(t *testing.T) {
	for _, kind := range Kinds() {
		c := ForNIC(kind)
		if c.NIC != kind {
			t.Errorf("ForNIC(%v).NIC = %v", kind, c.NIC)
		}
		want := kind == NICCNI
		for name, on := range map[string]bool{
			"ReceiveCaching":      c.ReceiveCaching,
			"TransmitCaching":     c.TransmitCaching,
			"ConsistencySnooping": c.ConsistencySnooping,
			"NICResponseCache":    c.NICResponseCache,
			"NICCollectives":      c.NICCollectives,
		} {
			if on != want {
				t.Errorf("%v: %s = %v, want %v", kind, name, on, want)
			}
		}
	}
}

func TestValidateCatchesBrokenConfigs(t *testing.T) {
	break1 := func(f func(*Config)) error {
		c := Default()
		f(&c)
		return c.Validate()
	}
	cases := []struct {
		name string
		f    func(*Config)
	}{
		{"zero CPU", func(c *Config) { c.CPUFreqMHz = 0 }},
		{"bus faster than CPU", func(c *Config) { c.BusFreqMHz = 500 }},
		{"zero NIC", func(c *Config) { c.NICFreqMHz = 0 }},
		{"line smaller than word", func(c *Config) { c.CacheLineBytes = 4 }},
		{"L2 smaller than L1", func(c *Config) { c.L2Bytes = 1024 }},
		{"unaligned page", func(c *Config) { c.PageBytes = 1001 }},
		{"48 KB L1", func(c *Config) { c.L1Bytes = 48 << 10 }},
		{"48-byte lines", func(c *Config) { c.CacheLineBytes = 48 }},
		{"3072-byte pages", func(c *Config) { c.PageBytes = 3072 }},
		{"payload bigger than cell", func(c *Config) { c.CellPayloadBytes = 100 }},
		{"message cache bigger than board", func(c *Config) { c.MessageCacheByte = 2 << 20 }},
		{"zero link", func(c *Config) { c.LinkMbps = 0 }},
		{"one-port switch", func(c *Config) { c.SwitchPorts = 1 }},
		{"negative loss rate", func(c *Config) { c.CellLossRate = -0.1 }},
		{"certain loss", func(c *Config) { c.CellLossRate = 1 }},
		{"negative corrupt rate", func(c *Config) { c.CellCorruptRate = -1e-6 }},
		{"certain corruption", func(c *Config) { c.CellCorruptRate = 1.5 }},
		{"negative dup rate", func(c *Config) { c.CellDupRate = -0.5 }},
		{"certain duplication", func(c *Config) { c.CellDupRate = 1 }},
		{"negative reorder window", func(c *Config) { c.ReorderWindow = -1 }},
		{"faults with no window", func(c *Config) { c.CellLossRate = 1e-4; c.RetransmitWindow = 0 }},
		{"faults with no timeout", func(c *Config) { c.CellDupRate = 1e-4; c.RetransmitTimeoutNS = 0 }},
		{"faults with zero backoff cap", func(c *Config) { c.ReorderWindow = 2; c.RetransmitBackoff = 0 }},
		{"unknown topology", func(c *Config) { c.Topology = "hypercube" }},
		{"odd clos radix", func(c *Config) { c.ClosRadix = 5 }},
		{"tiny clos radix", func(c *Config) { c.ClosRadix = 2 }},
		{"zero torus dimension", func(c *Config) { c.TorusDims = [3]int{4, 0, 2} }},
	}
	for _, tc := range cases {
		if err := break1(tc.f); err == nil {
			t.Errorf("%s: Validate accepted a broken config", tc.name)
		}
	}
}

func TestFaultsEnabled(t *testing.T) {
	c := Default()
	if c.FaultsEnabled() {
		t.Fatal("default config must have faults off")
	}
	knobs := []func(*Config){
		func(c *Config) { c.CellLossRate = 1e-6 },
		func(c *Config) { c.CellCorruptRate = 1e-6 },
		func(c *Config) { c.CellDupRate = 1e-6 },
		func(c *Config) { c.ReorderWindow = 1 },
	}
	for i, f := range knobs {
		c := Default()
		f(&c)
		if !c.FaultsEnabled() {
			t.Errorf("knob %d did not enable faults", i)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("knob %d: armed default config should validate: %v", i, err)
		}
	}
}

func TestUnitConversions(t *testing.T) {
	c := Default()
	// 166 MHz: 1000 ns = 166 cycles.
	if got := c.NSToCycles(1000); got != 166 {
		t.Errorf("NSToCycles(1000) = %d, want 166", got)
	}
	// Rounds up: 1 ns must cost at least 1 cycle.
	if got := c.NSToCycles(1); got != 1 {
		t.Errorf("NSToCycles(1) = %d, want 1", got)
	}
	if got := c.NSToCycles(0); got != 0 {
		t.Errorf("NSToCycles(0) = %d, want 0", got)
	}
	// One bus cycle at 25 MHz is 166/25 = 6.64 -> 7 CPU cycles.
	if got := c.BusToCPU(1); got != 7 {
		t.Errorf("BusToCPU(1) = %d, want 7", got)
	}
	// 25 bus cycles = exactly 166 CPU cycles.
	if got := c.BusToCPU(25); got != 166 {
		t.Errorf("BusToCPU(25) = %d, want 166", got)
	}
	// One NIC cycle at 33 MHz is ~5.03 -> 6 CPU cycles.
	if got := c.NICToCPU(1); got != 6 {
		t.Errorf("NICToCPU(1) = %d, want 6", got)
	}
	if got := c.CyclesToNS(166); got != 1000 {
		t.Errorf("CyclesToNS(166) = %d, want 1000", got)
	}
}

func TestWordsAndCells(t *testing.T) {
	c := Default()
	if got := c.Words(0); got != 0 {
		t.Errorf("Words(0) = %d", got)
	}
	if got := c.Words(1); got != 1 {
		t.Errorf("Words(1) = %d, want 1", got)
	}
	if got := c.Words(8); got != 1 {
		t.Errorf("Words(8) = %d, want 1", got)
	}
	if got := c.Words(9); got != 2 {
		t.Errorf("Words(9) = %d, want 2", got)
	}
	if got := c.Cells(0); got != 1 {
		t.Errorf("Cells(0) = %d, want 1 (minimum one cell)", got)
	}
	if got := c.Cells(48); got != 1 {
		t.Errorf("Cells(48) = %d, want 1", got)
	}
	if got := c.Cells(49); got != 2 {
		t.Errorf("Cells(49) = %d, want 2", got)
	}
	if got := c.Cells(4096); got != 86 {
		t.Errorf("Cells(4096) = %d, want 86", got)
	}
	c.UnrestrictedCell = true
	if got := c.Cells(1 << 20); got != 1 {
		t.Errorf("unrestricted Cells(1MB) = %d, want 1", got)
	}
}

func TestWireBytesIncludesCellOverhead(t *testing.T) {
	c := Default()
	if got := c.WireBytes(48); got != 53 {
		t.Errorf("WireBytes(48) = %d, want 53", got)
	}
	if got := c.WireBytes(4096); got != 86*53 {
		t.Errorf("WireBytes(4096) = %d, want %d", got, 86*53)
	}
	c.UnrestrictedCell = true
	if got := c.WireBytes(4096); got != 4096+5 {
		t.Errorf("unrestricted WireBytes(4096) = %d, want 4101", got)
	}
}

func TestSerializeCyclesMatchesLinkRate(t *testing.T) {
	c := Default()
	// 4 KB at 622 Mb/s: 86 cells * 53 B * 8 b = 36464 bits -> 58.6 us
	// -> about 9731 CPU cycles at 166 MHz.
	got := c.SerializeCycles(4096)
	ns := c.CyclesToNS(got)
	if ns < 58_000 || ns > 60_000 {
		t.Errorf("SerializeCycles(4096) = %d cycles = %d ns, want ~58.6 us", got, ns)
	}
}

func TestDMACyclesScalesWithSize(t *testing.T) {
	c := Default()
	small := c.DMACycles(64)
	page := c.DMACycles(4096)
	if small <= 0 || page <= small {
		t.Fatalf("DMACycles: 64B=%d, 4KB=%d", small, page)
	}
	// 4 KB = 512 words * 2 bus cycles + 12 overhead = 1036 bus cycles
	// = ~41.4 us. Check within 5%.
	ns := c.CyclesToNS(page)
	if ns < 40_000 || ns > 43_000 {
		t.Errorf("DMACycles(4096) = %d ns, want ~41.4 us", ns)
	}
}

func TestConversionMonotonicityProperty(t *testing.T) {
	c := Default()
	f := func(a, b uint32) bool {
		x, y := int64(a%1_000_000), int64(b%1_000_000)
		if x > y {
			x, y = y, x
		}
		return c.NSToCycles(x) <= c.NSToCycles(y) &&
			c.BusToCPU(x) <= c.BusToCPU(y) &&
			c.NICToCPU(x) <= c.NICToCPU(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripNSCyclesWithinOneCycle(t *testing.T) {
	c := Default()
	f := func(raw uint32) bool {
		ns := int64(raw % 100_000_000)
		cy := c.NSToCycles(ns)
		back := c.CyclesToNS(cy)
		// Round-up to cycles then down to ns: may gain at most one cycle.
		return back >= ns && back-ns <= 1000/c.CPUFreqMHz+7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTable1Rendering(t *testing.T) {
	c := Default()
	s := c.Table1()
	for _, want := range []string{
		"166 MHz", "32K unified", "1 MB unified", "Direct-mapped",
		"Write-back", "20 cycles", "25 MHz", "500 ns", "33 MHz",
		"20 us", "32 KB",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, s)
		}
	}
}

func TestPages(t *testing.T) {
	c := Default()
	if got := c.Pages(0); got != 0 {
		t.Errorf("Pages(0) = %d", got)
	}
	if got := c.Pages(1); got != 1 {
		t.Errorf("Pages(1) = %d", got)
	}
	if got := c.Pages(2048); got != 1 {
		t.Errorf("Pages(2048) = %d", got)
	}
	if got := c.Pages(2049); got != 2 {
		t.Errorf("Pages(2049) = %d", got)
	}
}

func TestNICKindString(t *testing.T) {
	if NICStandard.String() != "standard" || NICCNI.String() != "cni" {
		t.Fatal("NICKind.String broken")
	}
	if NICKind(9).String() == "" {
		t.Fatal("unknown NICKind should still render")
	}
}

func TestKindRegistry(t *testing.T) {
	kinds := Kinds()
	if len(kinds) != 3 {
		t.Fatalf("%d registered kinds, want 3", len(kinds))
	}
	names := KindNames()
	if got := strings.Join(names, " "); got != "standard cni osiris" {
		t.Errorf("KindNames() = %q, want NICKind order", got)
	}
	want := map[string]NICKind{"standard": NICStandard, "cni": NICCNI, "osiris": NICOsiris}
	for _, name := range names {
		kind, ok := KindByName(name)
		if !ok || want[name] != kind {
			t.Errorf("KindByName(%q) = %v, %v", name, kind, ok)
		}
	}
	if _, ok := KindByName("myrinet"); ok {
		t.Fatal("KindByName accepted an unregistered name")
	}
	for _, kind := range kinds {
		if !Registered(kind) {
			t.Errorf("%v not Registered", kind)
		}
		cfg := ForNIC(kind)
		if cfg.NIC != kind {
			t.Errorf("ForNIC(%v).NIC = %v", kind, cfg.NIC)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("ForNIC(%v) invalid: %v", kind, err)
		}
	}
	if Registered(NICKind(9)) || Registered(NICKind(-1)) {
		t.Fatal("an unknown NICKind reported as registered")
	}
	c := Default()
	c.NIC = NICKind(9)
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted an unknown NIC kind")
	}
}

func TestKindDisplay(t *testing.T) {
	cases := map[NICKind]string{NICStandard: "Standard", NICCNI: "CNI", NICOsiris: "Osiris"}
	for kind, want := range cases {
		if got := kind.Display(); got != want {
			t.Errorf("%v.Display() = %q, want %q", kind, got, want)
		}
	}
	if NICKind(9).Display() == "" {
		t.Fatal("unknown NICKind should still render a display name")
	}
}

func TestTopologySelection(t *testing.T) {
	c := Default()
	if c.Topology != TopoSingle || c.TopologyOrDefault() != TopoSingle {
		t.Fatalf("default topology = %q", c.Topology)
	}
	c.Topology = ""
	if c.TopologyOrDefault() != TopoSingle {
		t.Fatal("empty topology must resolve to single")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("empty topology should validate: %v", err)
	}
	for _, name := range TopoNames() {
		c := Default()
		c.Topology = name
		if err := c.Validate(); err != nil {
			t.Errorf("topology %q invalid: %v", name, err)
		}
	}
	c = Default()
	c.Topology = TopoClos
	c.ClosRadix = 8
	c.TorusDims = [3]int{4, 4, 2}
	if err := c.Validate(); err != nil {
		t.Fatalf("pinned clos radix + torus dims should validate: %v", err)
	}
}

func TestValidateNodes(t *testing.T) {
	for _, n := range []int{1, 2, 32, MaxNodes} {
		if err := ValidateNodes(n); err != nil {
			t.Errorf("ValidateNodes(%d): %v", n, err)
		}
	}
	for _, n := range []int{0, -1, MaxNodes + 1} {
		if err := ValidateNodes(n); err == nil {
			t.Errorf("ValidateNodes(%d) accepted an out-of-range count", n)
		}
	}
}
