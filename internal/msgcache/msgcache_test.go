package msgcache

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"cni/internal/sim"
)

const page = 2048

// newCache returns a 4-frame cache with identity-ish V/P mappings for
// the first 64 pages.
func newCache(snooping bool) *Cache {
	c := New(4*page, page, snooping)
	for v := uint64(0); v < 64; v++ {
		c.MapPage(v, v+1000) // physical pages offset to prove translation
	}
	return c
}

func TestTransmitMissThenHit(t *testing.T) {
	c := newCache(true)
	if c.LookupTransmit(0) {
		t.Fatal("cold lookup hit")
	}
	c.BindTransmit(0)
	if !c.LookupTransmit(0) {
		t.Fatal("lookup after bind missed")
	}
	if !c.LookupTransmit(page - 1) {
		t.Fatal("same-page address missed")
	}
	if c.LookupTransmit(page) {
		t.Fatal("next page hit")
	}
	if c.Stats.TxHits != 2 || c.Stats.TxMisses != 2 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestHitRatio(t *testing.T) {
	c := newCache(true)
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("empty stats hit ratio not 0")
	}
	c.BindTransmit(0)
	c.LookupTransmit(0)          // hit
	c.LookupTransmit(page)       // miss
	c.LookupTransmit(2 * page)   // miss
	c.LookupTransmit(page - 100) // hit
	if got := c.Stats.HitRatio(); got != 50 {
		t.Fatalf("HitRatio = %v, want 50", got)
	}
}

func TestClockEvictsUnreferenced(t *testing.T) {
	c := newCache(true)
	// Fill all 4 frames.
	for i := uint64(0); i < 4; i++ {
		c.BindTransmit(i * page)
	}
	// Touch pages 1-3 so page 0's reference bit is the only one cleared
	// after one sweep... all ref bits are set by bind; reference pages
	// 1,2,3 again to keep them warm through the sweep.
	c.LookupTransmit(1 * page)
	c.LookupTransmit(2 * page)
	c.LookupTransmit(3 * page)
	// Binding a 5th page must evict one of the four.
	c.BindTransmit(4 * page)
	if c.Stats.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", c.Stats.Evictions)
	}
	if !c.Resident(4 * page) {
		t.Fatal("new page not resident")
	}
	resident := 0
	for i := uint64(0); i < 4; i++ {
		if c.Resident(i * page) {
			resident++
		}
	}
	if resident != 3 {
		t.Fatalf("%d old pages resident, want 3", resident)
	}
}

func TestWorkingSetSmallerThanCacheNeverEvicts(t *testing.T) {
	c := newCache(true)
	for round := 0; round < 100; round++ {
		for i := uint64(0); i < 4; i++ {
			if !c.LookupTransmit(i * page) {
				c.BindTransmit(i * page)
			}
		}
	}
	if c.Stats.Evictions != 0 {
		t.Fatalf("evictions = %d for a fitting working set", c.Stats.Evictions)
	}
	// 400 lookups: 4 cold misses, rest hits.
	if c.Stats.TxMisses != 4 || c.Stats.TxHits != 396 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestWorkingSetLargerThanCacheThrashes(t *testing.T) {
	c := newCache(true)
	// Cyclic sweep over 8 pages in a 4-frame cache: hit ratio collapses.
	for round := 0; round < 50; round++ {
		for i := uint64(0); i < 8; i++ {
			if !c.LookupTransmit(i * page) {
				c.BindTransmit(i * page)
			}
		}
	}
	if c.Stats.HitRatio() > 50 {
		t.Fatalf("hit ratio %v for a thrashing working set", c.Stats.HitRatio())
	}
}

func TestSnoopUpdatesKeepBindingValid(t *testing.T) {
	c := newCache(true)
	c.BindTransmit(0)
	// CPU writes to physical page 1000 (= virtual page 0).
	if !c.SnoopWrite(1000 * page) {
		t.Fatal("snoop did not find the bound buffer")
	}
	if !c.Resident(0) {
		t.Fatal("snooping must keep the binding valid")
	}
	if c.Stats.SnoopUpdates != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if !c.LookupTransmit(0) {
		t.Fatal("post-snoop transmit should still hit")
	}
}

func TestSnoopWithoutSnoopingInvalidates(t *testing.T) {
	c := newCache(false)
	c.BindTransmit(0)
	if !c.SnoopWrite(1000 * page) {
		t.Fatal("write did not find the bound buffer")
	}
	if c.Resident(0) {
		t.Fatal("without snooping a CPU write must invalidate the binding")
	}
	if c.Stats.SnoopInvals != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestSnoopAbortsOnUnboundPage(t *testing.T) {
	c := newCache(true)
	if c.SnoopWrite(1005 * page) {
		t.Fatal("snoop matched an unbound page")
	}
	if c.SnoopWrite(5 * page) { // physical page with no RTLB entry
		t.Fatal("snoop matched an unmapped physical page")
	}
	if c.Stats.SnoopAborts != 2 {
		t.Fatalf("SnoopAborts = %d, want 2", c.Stats.SnoopAborts)
	}
}

func TestTLBAndRTLB(t *testing.T) {
	// The same cases on a cache with no translation yet and on one
	// whose MapPages already installed a 64-page run.
	presized := New(4*page, page, true)
	presized.MapPages(100, 5100, 64)
	for _, tc := range []struct {
		name string
		c    *Cache
	}{{"grown", New(4*page, page, true)}, {"presized", presized}} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.c
			c.MapPage(7, 1007)
			p, err := c.V2P(7)
			if err != nil || p != 1007 {
				t.Fatalf("V2P = %d, %v", p, err)
			}
			v, err := c.P2V(1007)
			if err != nil || v != 7 {
				t.Fatalf("P2V = %d, %v", v, err)
			}
			if _, err := c.V2P(8); err == nil {
				t.Fatal("V2P of unmapped page succeeded")
			}
			// Remap: old reverse entry must go away.
			c.MapPage(7, 2007)
			if _, err := c.P2V(1007); err == nil {
				t.Fatal("stale RTLB entry survived remap")
			}
			c.UnmapPage(7)
			if _, err := c.V2P(7); err == nil {
				t.Fatal("V2P after unmap succeeded")
			}
			if _, err := c.P2V(2007); err == nil {
				t.Fatal("P2V after unmap succeeded")
			}
		})
	}
	// The range itself translates both ways, and only its own pages.
	for v := uint64(100); v < 164; v++ {
		if p, err := presized.V2P(v); err != nil || p != v+5000 {
			t.Fatalf("V2P(%d) = %d, %v; want %d", v, p, err, v+5000)
		}
		if back, err := presized.P2V(v + 5000); err != nil || back != v {
			t.Fatalf("P2V(%d) = %d, %v; want %d", v+5000, back, err, v)
		}
	}
	if _, err := presized.V2P(164); err == nil {
		t.Fatal("V2P past the mapped range succeeded")
	}
}

func TestReceiveCachingBindsArrivals(t *testing.T) {
	c := newCache(true)
	c.BindReceive(3 * page)
	if !c.Resident(3 * page) {
		t.Fatal("receive binding not resident")
	}
	if c.Stats.RxBindings != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	// The whole point: the later transmit of the migrated page hits.
	if !c.LookupTransmit(3 * page) {
		t.Fatal("migration transmit missed after receive caching")
	}
}

func TestInvalidate(t *testing.T) {
	c := newCache(true)
	c.BindTransmit(0)
	if !c.Invalidate(10) { // same page
		t.Fatal("Invalidate missed the binding")
	}
	if c.Resident(0) {
		t.Fatal("binding survived Invalidate")
	}
	if c.Invalidate(0) {
		t.Fatal("double Invalidate returned true")
	}
}

func TestZeroFrameCacheAlwaysMisses(t *testing.T) {
	c := New(0, page, true)
	if c.Frames() != 0 {
		t.Fatalf("Frames = %d", c.Frames())
	}
	if c.LookupTransmit(0) {
		t.Fatal("zero-frame cache hit")
	}
	c.BindTransmit(0) // must not panic
	if c.LookupTransmit(0) {
		t.Fatal("zero-frame cache bound a page")
	}
}

func TestRebindExistingPageIsNotAnEviction(t *testing.T) {
	c := newCache(true)
	c.BindTransmit(0)
	c.BindTransmit(0)
	if c.Stats.Evictions != 0 || c.Stats.TxBindings != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if c.Residents() != 1 {
		t.Fatalf("Residents = %d", c.Residents())
	}
}

func TestBufferMapInvariantProperty(t *testing.T) {
	// Property: after any sequence of binds, lookups and invalidates,
	// (1) Residents never exceeds frame count, (2) every resident page
	// round-trips through Resident, (3) hits+misses equals lookups.
	type op struct {
		Kind uint8
		Page uint8
	}
	f := func(ops []op) bool {
		c := New(4*page, page, true)
		lookups := uint64(0)
		for _, o := range ops {
			addr := uint64(o.Page%16) * page
			switch o.Kind % 3 {
			case 0:
				c.BindTransmit(addr)
			case 1:
				c.LookupTransmit(addr)
				lookups++
			case 2:
				c.Invalidate(addr)
			}
			if c.Residents() > c.Frames() {
				return false
			}
		}
		return c.Stats.TxHits+c.Stats.TxMisses == lookups
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClockIsApproximateLRU(t *testing.T) {
	// Sequential sweep with one hot page: the hot page must survive far
	// longer than cold pages.
	c := New(8*page, page, true)
	hot := uint64(100 * page)
	c.BindTransmit(hot)
	evictedHot := 0
	for i := uint64(0); i < 1000; i++ {
		c.LookupTransmit(hot) // keep reference bit set
		addr := (i % 32) * page
		if !c.LookupTransmit(addr) {
			c.BindTransmit(addr)
		}
		if !c.Resident(hot) {
			evictedHot++
			c.BindTransmit(hot)
		}
	}
	if evictedHot > 10 {
		t.Fatalf("hot page evicted %d times; clock not approximating LRU", evictedHot)
	}
}

func TestPinExemptsFrameFromSweep(t *testing.T) {
	c := newCache(true)
	c.BindTransmit(0)
	if !c.Pin(0) {
		t.Fatal("pin of a bound page failed")
	}
	// Flood the other three frames many times over: the pinned page must
	// survive every sweep.
	for i := uint64(1); i <= 30; i++ {
		c.BindTransmit(i * page)
	}
	if !c.Resident(0) {
		t.Fatal("pinned page evicted by the clock sweep")
	}
	if !c.Pinned(0) {
		t.Fatal("pin lost")
	}
	c.Unpin(0)
	if c.Pinned(0) {
		t.Fatal("unpin did not release")
	}
	// Now it is fair game again.
	for i := uint64(1); i <= 30; i++ {
		c.BindTransmit(i * page)
	}
	if c.Resident(0) {
		t.Fatal("unpinned page never evicted under pressure")
	}
}

func TestPinNestsAndAllPinnedFailsBind(t *testing.T) {
	c := newCache(true)
	for i := uint64(0); i < 4; i++ {
		c.BindTransmit(i * page)
		c.Pin(i * page)
	}
	evBefore := c.Stats.Evictions
	// Every frame pinned: a new bind must fail, not evict retained data.
	c.BindTransmit(10 * page)
	if c.Resident(10 * page) {
		t.Fatal("bind succeeded with every frame pinned")
	}
	if c.Stats.Evictions != evBefore {
		t.Fatal("a pinned frame was evicted")
	}
	// Pins nest: one Unpin of a double pin keeps the exemption.
	c.Pin(0)
	c.Unpin(0)
	if !c.Pinned(0) {
		t.Fatal("nested pin released after one unpin")
	}
	c.Unpin(0)
	c.BindTransmit(10 * page)
	if !c.Resident(10 * page) {
		t.Fatal("bind still failing after an unpin freed a frame")
	}
}

func TestPinOfUnboundPageFails(t *testing.T) {
	c := newCache(true)
	if c.Pin(5 * page) {
		t.Fatal("pinned a page with no binding")
	}
	if c.Unpin(5 * page) {
		t.Fatal("unpinned a page with no binding")
	}
	// Invalidation clears the pin state with the binding.
	c.BindTransmit(0)
	c.Pin(0)
	c.Invalidate(0)
	if c.Pinned(0) {
		t.Fatal("pin survived invalidation")
	}
}

func TestPinnedNeverVictimUnderSustainedPressure(t *testing.T) {
	// Two of four frames pinned, then hundreds of binds cycling through a
	// working set far larger than the cache: at no point may a pinned
	// frame be chosen as the clock victim.
	c := newCache(true)
	pinned := []uint64{0, page}
	for _, a := range pinned {
		c.BindTransmit(a)
		if !c.Pin(a) {
			t.Fatal("pin failed on a bound page")
		}
	}
	for i := uint64(0); i < 500; i++ {
		c.BindTransmit((2 + i%60) * page)
		for _, a := range pinned {
			if !c.Resident(a) || !c.Pinned(a) {
				t.Fatalf("iteration %d: pinned page %#x lost (resident=%v pinned=%v)",
					i, a, c.Resident(a), c.Pinned(a))
			}
		}
	}
	if c.Stats.Evictions == 0 {
		t.Fatal("pressure produced no evictions; the test exercised nothing")
	}
}

func TestUnpinStormKeepsBufferMapConsistent(t *testing.T) {
	// Property: arbitrary interleavings of bind, pin, unpin (including
	// excess unpins of never-pinned or invalidated pages), invalidate and
	// lookup must keep the buffer map sound: residency bounded by the
	// frame count and every V<->P translation intact. Afterwards an unpin
	// storm must leave no frame stuck pinned.
	type op struct {
		Kind uint8
		Page uint8
	}
	f := func(ops []op) bool {
		c := New(4*page, page, true)
		for v := uint64(0); v < 16; v++ {
			c.MapPage(v, v+1000)
		}
		for _, o := range ops {
			addr := uint64(o.Page%16) * page
			switch o.Kind % 5 {
			case 0:
				c.BindTransmit(addr)
			case 1:
				c.Pin(addr)
			case 2:
				c.Unpin(addr)
			case 3:
				c.Invalidate(addr)
			case 4:
				c.LookupTransmit(addr)
			}
			if c.Residents() > c.Frames() {
				return false
			}
			for v := uint64(0); v < 16; v++ {
				p, err := c.V2P(v)
				if err != nil || p != v+1000 {
					return false
				}
				v2, err := c.P2V(p)
				if err != nil || v2 != v {
					return false
				}
			}
		}
		// Unpin storm: far more unpins than any pin nesting the ops could
		// have built. All must be harmless, and afterwards nothing may be
		// exempt from the sweep.
		for round := 0; round < 16; round++ {
			for v := uint64(0); v < 16; v++ {
				c.Unpin(v * page)
			}
		}
		for v := uint64(0); v < 16; v++ {
			if c.Pinned(v * page) {
				return false // a pin survived the storm
			}
		}
		for v := uint64(0); v < 4; v++ {
			addr := (10 + v) * page
			c.BindTransmit(addr)
			if !c.Resident(addr) {
				return false // a bind failed: some frame is stuck pinned
			}
		}
		return c.Residents() <= c.Frames()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewRejectsNonPositivePageSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a zero page size")
		}
	}()
	New(4*page, 0, true)
}

// refTLB is the TLB/RTLB pair as two maps filled a page at a time, the
// representation the runs replaced. The runs must translate as it
// does.
type refTLB struct{ tlb, rtlb map[uint64]uint64 }

func newRefTLB() *refTLB {
	return &refTLB{tlb: make(map[uint64]uint64), rtlb: make(map[uint64]uint64)}
}

func (r *refTLB) mapPage(vpage, ppage uint64) {
	if old, ok := r.tlb[vpage]; ok && old != ppage {
		delete(r.rtlb, old)
	}
	r.tlb[vpage] = ppage
	r.rtlb[ppage] = vpage
}

func (r *refTLB) mapPages(vpage, ppage uint64, n int) {
	for i := range uint64(n) {
		r.mapPage(vpage+i, ppage+i)
	}
}

func (r *refTLB) unmapPage(vpage uint64) {
	if p, ok := r.tlb[vpage]; ok {
		delete(r.rtlb, p)
		delete(r.tlb, vpage)
	}
}

// aliases reports whether mapping vpage+i to ppage+i, for i < n, would
// map two virtual pages onto one physical page at some step: whether a
// physical page of the range already translates back to a virtual page
// other than its new one.
func (r *refTLB) aliases(vpage, ppage uint64, n int) bool {
	for i := range uint64(n) {
		if v, ok := r.rtlb[ppage+i]; ok && v != vpage+i {
			return true
		}
	}
	return false
}

// The window translation programs work in: virtual pages [winLo,
// winLo+winPages), each mapped onto its page number plus one of
// physBases. The first base is the boards' physical page offset
// (nic.PhysPageOffset); shifting it by one and by 40 pages makes
// ranges meet and collide in physical space, and the last base is
// clear of the others. physWindows are the physical pages the window
// maps onto under some base, with one page past each end.
const (
	winLo      = 1 << 10
	winPages   = 256
	physOffset = 1 << 20
	physClear  = 3 << 20
)

var (
	physBases   = [...]uint64{physOffset, physOffset + 1, physOffset + 40, physClear}
	physWindows = [...][2]uint64{
		{physOffset + winLo - 1, physOffset + 40 + winLo + winPages},
		{physClear + winLo - 1, physClear + winLo + winPages},
	}
)

// checkTranslations runs a translation program on a Cache and on a
// refTLB. region pages (up to 8,191) from winLo are mapped first, as a
// DSM or serving board maps one region before anything else. Each op
// of prog is four bytes: the operation (MapPage, MapPages, UnmapPage),
// a virtual page of the window, a physical base, and a length from 0
// to 70. An op that would map two virtual pages onto one physical page
// is skipped, since that is outside MapPages's contract. After every
// op, V2P of every page in the window and one past each end, and P2V
// of every page of physWindows, must equal the reference; and the runs
// must be sorted, disjoint in both spaces and non-empty, with no
// neighbour that continues another. It reports the ops skipped and the
// most runs held.
func checkTranslations(t *testing.T, region uint16, prog []byte) (skipped, maxRuns int) {
	t.Helper()
	c, ref := New(4*page, page, true), newRefTLB()
	check := func(step string) {
		t.Helper()
		for v := uint64(winLo - 1); v <= winLo+winPages; v++ {
			got, gerr := c.V2P(v)
			want, ok := ref.tlb[v]
			if (gerr == nil) != ok || got != want {
				t.Fatalf("%s: V2P(%d) = %d, %v; reference %d, %v", step, v, got, gerr, want, ok)
			}
		}
		for _, w := range physWindows {
			for p := w[0]; p <= w[1]; p++ {
				got, gerr := c.P2V(p)
				want, ok := ref.rtlb[p]
				if (gerr == nil) != ok || got != want {
					t.Fatalf("%s: P2V(%d) = %d, %v; reference %d, %v", step, p, got, gerr, want, ok)
				}
			}
		}
		if err := runShape(c.runs); err != "" {
			t.Fatalf("%s: %s in %v", step, err, c.runs)
		}
		maxRuns = max(maxRuns, len(c.runs))
	}
	n := int(region) % 8192
	c.MapPages(winLo, physBases[0]+winLo, n)
	ref.mapPages(winLo, physBases[0]+winLo, n)
	check("region")
	for i := 0; i+4 <= len(prog); i += 4 {
		kind := prog[i] % 3
		v := winLo + uint64(prog[i+1])
		p := physBases[int(prog[i+2])%len(physBases)] + v
		n := int(prog[i+3]) % 71
		switch kind {
		case 0:
			if ref.aliases(v, p, 1) {
				skipped++
				continue
			}
			c.MapPage(v, p)
			ref.mapPage(v, p)
		case 1:
			if ref.aliases(v, p, n) {
				skipped++
				continue
			}
			c.MapPages(v, p, n)
			ref.mapPages(v, p, n)
		case 2:
			c.UnmapPage(v)
			ref.unmapPage(v)
		}
		check(fmt.Sprintf("op %d (kind %d, v %d, p %d, n %d)", i/4, kind, v, p, n))
	}
	return skipped, maxRuns
}

// runShape names what is wrong with a run list, or returns "".
func runShape(runs []run) string {
	for i, r := range runs {
		if r.n == 0 {
			return fmt.Sprintf("empty run %d", i)
		}
		if i == 0 {
			continue
		}
		switch prev := runs[i-1]; {
		case prev.v+prev.n > r.v:
			return fmt.Sprintf("runs %d and %d unsorted or overlapping", i-1, i)
		case continues(prev, r):
			return fmt.Sprintf("runs %d and %d not merged", i-1, i)
		}
	}
	byP := slices.Clone(runs)
	slices.SortFunc(byP, func(a, b run) int { return cmp.Compare(a.p, b.p) })
	for i := 1; i < len(byP); i++ {
		if byP[i-1].p+byP[i-1].n > byP[i].p {
			return fmt.Sprintf("physical ranges of %v and %v overlap", byP[i-1], byP[i])
		}
	}
	return ""
}

// seedPrograms are the mappings the benchmark's boards make, as
// checkTranslations programs, with 2 KB pages.
var seedPrograms = []struct {
	region uint16
	prog   []byte
}{
	// fabric-torus: the 64 KB transmit and receive windows at 0x10000
	// and 0x40000.
	{0, []byte{1, 32, 0, 32, 1, 128, 0, 32}},
	// The DSM's 4,097-page shared region; then one page remapped clear
	// of it and back, which splits the run and merges it again, and one
	// page unmapped.
	{4097, []byte{0, 10, 3, 0, 0, 10, 0, 0, 2, 200, 0, 0}},
	// rpc.Transport.MapHeap growing a KV heap: the client's 65 pages,
	// then the server's slots behind them.
	{0, []byte{1, 0, 0, 65, 1, 65, 0, 64}},
	// A heap grown by unaligned byte counts, whose steps share a page.
	{0, []byte{1, 0, 0, 10, 1, 9, 0, 20, 1, 28, 0, 30}},
}

// TestTranslationsMatchReference runs the seed programs, then 128
// seeded random programs of 64 ops, through checkTranslations.
func TestTranslationsMatchReference(t *testing.T) {
	for _, s := range seedPrograms {
		checkTranslations(t, s.region, s.prog)
	}
	rng := sim.NewRNG(1)
	skipped, maxRuns := 0, 0
	for i := 0; i < 128; i++ {
		region := []uint16{0, 0, uint16(rng.Intn(300)), 4097}[i%4]
		prog := make([]byte, 4*64)
		for j := range prog {
			prog[j] = byte(rng.Uint64())
		}
		s, m := checkTranslations(t, region, prog)
		skipped += s
		maxRuns = max(maxRuns, m)
	}
	if skipped == 0 || maxRuns < 8 {
		t.Fatalf("random programs skipped %d ops and held at most %d runs: they never aliased or fragmented the window", skipped, maxRuns)
	}
}

// FuzzTranslations is checkTranslations on fuzzed programs.
func FuzzTranslations(f *testing.F) {
	for _, s := range seedPrograms {
		f.Add(s.region, s.prog)
	}
	f.Fuzz(func(t *testing.T, region uint16, prog []byte) {
		checkTranslations(t, region, prog)
	})
}
