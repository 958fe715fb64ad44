package mem

// Warm-touch API: functional cache/TLB warming driven by the emulator's
// access stream during checkpointed fast-forward and sampled simulation,
// and by the interval-model profiler. Warm operations install lines and
// update LRU exactly like demand accesses, but count nothing — the
// measured region's statistics must reflect only measured-region traffic
// — and carry no timing: there are no in-flight fills, so the first
// demand access to a warmed line is a plain hit. The Profile* entry
// points also report where each touch was satisfied; warming callers
// drop the result.

// Warm touches addr without recording statistics: it updates LRU on a
// hit (marking the line dirty on stores) and allocates on a miss,
// reporting whether the touch hit. Warm-allocated lines from stores are
// installed dirty, so measured-region evictions of warm dirty lines still
// count as writebacks — matching a cache warmed by real execution.
func (c *Cache) Warm(addr uint64, store bool) (hit bool) {
	c.tick++
	set, tag := c.index(addr)
	ways := c.sets[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			ways[i].lru = c.tick
			if store {
				ways[i].dirty = true
			}
			return true
		}
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = line{tag: tag, valid: true, dirty: store, lru: c.tick}
	return false
}

// Warm installs the translation for addr without counting an access or a
// miss, reporting whether the translation was already present.
func (t *TLB) Warm(addr uint64) (hit bool) {
	t.tick++
	page := addr >> t.pageShift
	set := page & t.setMask
	ways := t.entries[set]
	for i := range ways {
		if ways[i].valid && ways[i].tag == page {
			ways[i].lru = t.tick
			return true
		}
	}
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].lru < ways[victim].lru {
			victim = i
		}
	}
	ways[victim] = line{tag: page, valid: true, lru: t.tick}
	return false
}

// WarmLevel classifies where a warm touch was satisfied. The
// interval-model profiler (internal/model) uses it to count per-level
// miss events in one functional pass without the timing machinery.
type WarmLevel uint8

// Warm-touch hit levels.
const (
	// WarmHitL1 hit in the first-level cache (L1D or L1I).
	WarmHitL1 WarmLevel = iota
	// WarmHitL2 missed the first level and hit the L2.
	WarmHitL2
	// WarmHitMem missed both levels: the fill comes from main memory.
	WarmHitMem
)

// profileData warms the data path for one access: the D-TLB and the L1D,
// touching the L2 only when the L1D warm-touch misses — the same
// filtering a demand miss path applies — and reports where the access
// landed.
func (h *Hierarchy) profileData(addr uint64, store bool) (lvl WarmLevel, tlbMiss bool) {
	if h.tlb != nil {
		tlbMiss = !h.tlb.Warm(addr)
	}
	if h.l1d.Warm(addr, store) {
		return WarmHitL1, tlbMiss
	}
	if h.l2.Warm(addr, false) {
		return WarmHitL2, tlbMiss
	}
	return WarmHitMem, tlbMiss
}

// ProfileLoad warms the hierarchy for a functional load and reports the
// hit level and whether the D-TLB missed.
func (h *Hierarchy) ProfileLoad(addr uint64) (lvl WarmLevel, tlbMiss bool) {
	return h.profileData(addr, false)
}

// ProfileStore warms the hierarchy for a functional store and reports
// the hit level and whether the D-TLB missed.
func (h *Hierarchy) ProfileStore(addr uint64) (lvl WarmLevel, tlbMiss bool) {
	return h.profileData(addr, true)
}

// ProfileFetch warms the instruction path for the line containing addr
// and reports the hit level: the L1I, then the L2 on an L1I miss.
func (h *Hierarchy) ProfileFetch(addr uint64) WarmLevel {
	if h.l1i.Warm(addr, false) {
		return WarmHitL1
	}
	if h.l2.Warm(addr, false) {
		return WarmHitL2
	}
	return WarmHitMem
}
