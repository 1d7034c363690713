package memsys

import (
	"slices"
	"testing"
)

// refCache is a Cache with the full-set-scan probe every access took before
// the last-line memo: the reference the memoized probe must match exactly.
type refCache struct {
	cfg      CacheConfig
	sets     int
	lineBits uint
	lines    []line
	clock    uint64

	Accesses   uint64
	Misses     uint64
	Writebacks uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	sets := cfg.Sets()
	return &refCache{cfg: cfg, sets: sets, lineBits: uint(setBits(cfg.LineBytes)), lines: make([]line, sets*cfg.Ways)}
}

func setBits(sets int) int {
	b := 0
	for 1<<b < sets {
		b++
	}
	return b
}

func (c *refCache) probe(addr uint64, write bool) (hit, writeback bool) {
	c.Accesses++
	blk := addr >> c.lineBits
	set := int(blk & uint64(c.sets-1))
	tag := blk >> uint(setBits(c.sets))
	base := set * c.cfg.Ways
	c.clock++
	victim := base
	for w := 0; w < c.cfg.Ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			ln.lru = c.clock
			if write {
				ln.dirty = true
			}
			return true, false
		}
		if !ln.valid {
			victim = base + w
		} else if c.lines[victim].valid && ln.lru < c.lines[victim].lru {
			victim = base + w
		}
	}
	c.Misses++
	v := &c.lines[victim]
	writeback = v.valid && v.dirty
	if writeback {
		c.Writebacks++
	}
	*v = line{valid: true, tag: tag, lru: c.clock, dirty: write}
	return false, writeback
}

func (c *refCache) contains(addr uint64) bool {
	blk := addr >> c.lineBits
	set := int(blk & uint64(c.sets-1))
	tag := blk >> uint(setBits(c.sets))
	for w := 0; w < c.cfg.Ways; w++ {
		ln := c.lines[set*c.cfg.Ways+w]
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// refHierarchy walks refCaches the way Hierarchy walks Caches.
type refHierarchy struct {
	il1, dl1, l2 *refCache
	cfg          Config
	mshrs        *mshrFile
}

func newRefHierarchy(cfg Config) *refHierarchy {
	return &refHierarchy{il1: newRefCache(cfg.IL1), dl1: newRefCache(cfg.DL1), l2: newRefCache(cfg.L2),
		cfg: cfg, mshrs: newMSHRFile(cfg.MSHRs)}
}

func (h *refHierarchy) access(l1 *refCache, addr uint64, write bool) (hit bool, lat int) {
	lat = l1.cfg.Latency
	if hit, _ := l1.probe(addr, write); hit {
		return true, lat
	}
	lat += h.l2.cfg.Latency
	hit2, _ := h.l2.probe(addr, false)
	if h.cfg.NextLinePrefetch && l1 == h.dl1 {
		h.prefetchNextLine(addr)
	}
	if hit2 {
		return false, lat
	}
	return false, lat + h.cfg.MemLatency
}

func (h *refHierarchy) dataAt(addr uint64, write bool, now uint64) (hit bool, lat int) {
	hit, lat = h.access(h.dl1, addr, write)
	if hit || h.mshrs == nil {
		return hit, lat
	}
	missLat := lat - h.cfg.DL1.Latency
	start := h.mshrs.admit(now, missLat)
	return false, h.cfg.DL1.Latency + int(start-now) + missLat
}

func (h *refHierarchy) prefetchNextLine(addr uint64) {
	next := (addr | uint64(h.dl1.cfg.LineBytes-1)) + 1
	if h.dl1.contains(next) {
		return
	}
	h.dl1.probe(next, false)
	h.dl1.Accesses--
	h.dl1.Misses--
	if !h.l2.contains(next) {
		h.l2.probe(next, false)
		h.l2.Accesses--
		h.l2.Misses--
	}
}

// access is one step of a driven stream: which port, where, and whether it
// writes.
type access struct {
	port  int // 0 InstFetch, 1 Data, 2 DataAt
	addr  uint64
	write bool
}

// drive performs a on h at cycle now and returns the latency.
func (a access) drive(h *Hierarchy, now uint64) int {
	switch a.port {
	case 0:
		return h.InstFetch(a.addr)
	case 1:
		return h.Data(a.addr, a.write)
	}
	return h.DataAt(a.addr, a.write, now)
}

// driveRef performs a on the reference and returns whether the first level
// hit and the latency.
func (a access) driveRef(h *refHierarchy, now uint64) (hit bool, lat int) {
	switch a.port {
	case 0:
		return h.access(h.il1, a.addr, false)
	case 1:
		return h.access(h.dl1, a.addr, a.write)
	}
	return h.dataAt(a.addr, a.write, now)
}

// mixedStream is a deterministic mix of random addresses over 1MB across
// all three ports.
func mixedStream(seed uint64, n int) []access {
	out := make([]access, n)
	x := seed
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		addr := (x % (1 << 20)) &^ 7
		switch x >> 61 {
		case 0:
			out[i] = access{port: 0, addr: addr}
		case 1:
			out[i] = access{port: 1, addr: addr, write: true}
		case 2:
			out[i] = access{port: 2, addr: addr}
		default:
			out[i] = access{port: 1, addr: addr}
		}
	}
	return out
}

// fetchStream is fetch-shaped: runs of sequential 4-byte instruction
// fetches that jump to a new basic block every few runs, with a load or
// store into a 96KB data region between runs.
func fetchStream(seed uint64, n int) []access {
	out := make([]access, 0, n)
	x := seed
	pc := uint64(0x10000)
	for len(out) < n {
		x = x*6364136223846793005 + 1442695040888963407
		for run := 4 + int(x>>60); run > 0 && len(out) < n; run-- {
			out = append(out, access{port: 0, addr: pc})
			pc += 4
		}
		if len(out) < n {
			out = append(out, access{port: 1 + int(x>>40&1), addr: 0x800000 + (x>>20)%(96<<10)&^7, write: x>>50&3 == 0})
		}
		if x>>30&7 == 0 { // a taken branch somewhere into 64KB of text
			pc = 0x10000 + (x>>8)%(64<<10)&^3
		}
	}
	return out
}

// conflictStream works the memo's edge cases: starting at address 0, it
// keeps picking among 16 blocks that fall into two sets of every level
// (eight per set, more than any level's ways), so the line a probe last
// hit is often evicted and then asked for again; a quarter of accesses
// repeat the previous block, often as a write.
func conflictStream(seed uint64, n int) []access {
	out := make([]access, n)
	x := seed
	var addr uint64
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		if i > 0 && x>>62 != 0 {
			addr = (x>>20)%8<<17 | (x>>30)%2<<6 // 128KB apart: the same set in every level
		}
		addr = addr&^15 | (x>>40)%2*8
		port := int(x>>50) % 3
		out[i] = access{port: port, addr: addr, write: port != 0 && x>>55&1 == 0}
	}
	return out
}

// TestMemoizedProbeMatchesReference drives the cache hierarchy and the
// full-scan reference with the same streams and requires the same
// first-level hit and latency on every access, then the same lines, clock
// and counters at every level.
func TestMemoizedProbeMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		accs []access
	}{
		{"mixed", mixedStream(1, 60_000)},
		{"fetch", fetchStream(2, 60_000)},
		{"conflict", conflictStream(3, 60_000)},
	} {
		for _, pf := range []bool{false, true} {
			cfg := Default()
			cfg.MSHRs = 4
			cfg.NextLinePrefetch = pf
			h, ref := New(cfg), newRefHierarchy(cfg)
			for i, a := range tc.accs {
				l1 := h.DL1
				if a.port == 0 {
					l1 = h.IL1
				}
				misses := l1.Misses
				lat := a.drive(h, uint64(i))
				refHit, refLat := a.driveRef(ref, uint64(i))
				if hit := l1.Misses == misses; hit != refHit || lat != refLat {
					t.Fatalf("%s/prefetch=%v access %d %+v: hit %v latency %d, reference hit %v latency %d",
						tc.name, pf, i, a, hit, lat, refHit, refLat)
				}
			}
			for _, pair := range []struct {
				c   *Cache
				ref *refCache
			}{{h.IL1, ref.il1}, {h.DL1, ref.dl1}, {h.L2, ref.l2}} {
				c, r := pair.c, pair.ref
				if !slices.Equal(c.lines, r.lines) {
					t.Errorf("%s/prefetch=%v %s: lines differ from the reference", tc.name, pf, c.cfg.Name)
				}
				if c.clock != r.clock || c.Accesses != r.Accesses || c.Misses != r.Misses || c.Writebacks != r.Writebacks {
					t.Errorf("%s/prefetch=%v %s: clock/accesses/misses/writebacks %d/%d/%d/%d, reference %d/%d/%d/%d",
						tc.name, pf, c.cfg.Name, c.clock, c.Accesses, c.Misses, c.Writebacks,
						r.clock, r.Accesses, r.Misses, r.Writebacks)
				}
			}
		}
	}
}

// BenchmarkCacheProbe measures one access per op through the hierarchy: a
// sequential, IL1-like fetch stream looping over 16KB of text (seven of
// every eight fetches repeat the previous 32-byte line), and a random,
// DL1-like load/store stream over 256KB.
func BenchmarkCacheProbe(b *testing.B) {
	b.Run("il1-sequential", func(b *testing.B) {
		h := New(Default())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.InstFetch(0x10000 + uint64(i)*4%(16<<10))
		}
	})
	b.Run("dl1-random", func(b *testing.B) {
		accs := make([]access, 1<<16)
		x := uint64(1)
		for i := range accs {
			x = x*6364136223846793005 + 1442695040888963407
			accs[i] = access{port: 1, addr: 0x800000 + (x>>16)%(256<<10)&^7, write: x>>62 == 0}
		}
		h := New(Default())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := &accs[i&(len(accs)-1)]
			h.Data(a.addr, a.write)
		}
	})
}
