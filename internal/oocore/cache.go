package oocore

// CacheStats counts the block cache's traffic: loads served from
// resident adjacency (Hits) vs from disk (Misses), blocks dropped to
// stay under budget (Evictions), the largest resident-byte total
// observed (PeakResidentBytes — exceeds the budget only when the block
// being loaded is larger than the whole budget, or when the dropped
// arrays it was decoded into carry spare capacity), and all bytes moved
// through the spill directory in either direction (SpillBytesWritten /
// SpillBytesRead: block files). A block the spill keeps resident is a
// hit from its first pass; it is read back, and counts a miss, only
// after an eviction. When the budget holds the whole graph, Misses and
// SpillBytesRead are 0.
type CacheStats struct {
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	Evictions         int64 `json:"evictions"`
	PeakResidentBytes int64 `json:"peak_resident_bytes"`
	SpillBytesWritten int64 `json:"spill_bytes_written"`
	SpillBytesRead    int64 `json:"spill_bytes_read"`
}

// entry is one resident block: its decoded, read-only CSR adjacency.
// The neighbors of the block's i-th node are flat[off[i]:off[i+1]].
type entry struct {
	id   int
	off  []int
	flat []int
	// bytes is 8*(cap(off)+cap(flat)), charged against the budget: the
	// arrays may be an evicted block's, larger than this block needs,
	// and the budget sees every resident element.
	bytes int64

	pinned bool // being processed right now; never evicted
	ref    bool // clock second-chance bit
}

// cache is the budgeted resident set: a map for lookup plus a ring
// slice the clock hand sweeps. Blocks are never modified after the
// spill, so eviction just drops the decoded slices, or hands them to the
// block whose load caused it; a later miss decodes the block file again.
type cache struct {
	budget   int64
	resident map[int]*entry
	ring     []*entry
	hand     int
	bytes    int64
	stats    *CacheStats
}

func newCache(budget int64, stats *CacheStats) *cache {
	return &cache{budget: budget, resident: map[int]*entry{}, stats: stats}
}

// get returns block id's entry if resident, counting a hit and setting
// its second-chance bit; nil counts a miss.
func (c *cache) get(id int) *entry {
	ent := c.resident[id]
	if ent == nil {
		c.stats.Misses++
		return nil
	}
	c.stats.Hits++
	ent.ref = true
	return ent
}

// insert adds an entry and updates the peak watermark. The spill
// inserts only a block that fits beside the resident ones; a load has
// made room for its block with shrink and shrinks again afterwards (with
// the new entry pinned), in case the reused arrays it decoded into are
// larger than the room it asked for.
func (c *cache) insert(ent *entry) {
	c.resident[ent.id] = ent
	c.ring = append(c.ring, ent)
	c.bytes += ent.bytes
	if c.bytes > c.stats.PeakResidentBytes {
		c.stats.PeakResidentBytes = c.bytes
	}
}

// shrink drops clock-selected unpinned blocks until resident bytes plus
// need fit the budget. Pinned entries survive even when over budget, so
// a single block larger than the whole budget still decomposes — the
// cache degrades to one-block-at-a-time rather than failing. It returns
// the smallest dropped offset array that fits offs elements and the
// smallest dropped neighbor array that fits arcs (nil where none does),
// so the block about to be decoded reuses them instead of allocating.
func (c *cache) shrink(need int64, offs, arcs int) (off, flat []int) {
	spared := 0 // consecutive clock slots passed over (pinned or ref'd)
	for c.bytes+need > c.budget && len(c.ring) > 0 {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		ent := c.ring[c.hand]
		if ent.pinned {
			c.hand++
			if spared++; spared >= 2*len(c.ring) {
				return off, flat // everything pinned: allow the overshoot
			}
			continue
		}
		if ent.ref {
			ent.ref = false
			c.hand++
			spared++
			continue
		}
		spared = 0
		c.remove(ent)
		c.stats.Evictions++
		if fits(ent.off, offs) && (off == nil || cap(ent.off) < cap(off)) {
			off = ent.off
		}
		if fits(ent.flat, arcs) && (flat == nil || cap(ent.flat) < cap(flat)) {
			flat = ent.flat
		}
	}
	return off, flat
}

// remove drops ent from the map and ring, keeping the clock hand on the
// element that slid into the vacated slot.
func (c *cache) remove(ent *entry) {
	delete(c.resident, ent.id)
	c.bytes -= ent.bytes
	for i, e := range c.ring {
		if e == ent {
			c.ring = append(c.ring[:i], c.ring[i+1:]...)
			if c.hand > i {
				c.hand--
			}
			break
		}
	}
}

// fits reports whether a dropped array can take n elements without
// carrying more than half again as many: the entry is charged for the
// array's whole capacity, so a much larger one would shrink what the
// budget can hold.
func fits(a []int, n int) bool {
	return cap(a) >= n && cap(a)-n <= n/2
}
