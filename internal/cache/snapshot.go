package cache

import (
	"slices"

	"spb/internal/mem"
)

// This file adds the two pieces warm-start simulation (DESIGN.md §12) needs
// from the cache arrays: counter-free "functional warming" accesses, and a
// deep-copy Snapshot/Restore of all mutable state.
//
// Functional warming replays a workload prefix against the tag/LRU arrays
// without touching the statistics counters, the MSHR model, or fill timing —
// so the warmed state depends only on the instruction stream, never on the
// per-grid-point configuration knobs a sweep varies. WarmLookup and
// WarmInsert mirror Lookup and Insert effect-for-effect on the array state
// (same LRU clock advances, same victim choice) minus the counters, and fill
// with ReadyAt 0 (data "already arrived": warmup models steady state, not
// the transient).

// WarmLookup returns the line holding b, touching LRU state exactly as a
// demand Lookup(b, true) would, but without counting the access.
func (c *Cache) WarmLookup(b mem.Block) *Line {
	l, _ := c.WarmLookupSlot(b)
	return l
}

// WarmLookupSlot is WarmLookup that also returns b's slot (-1 on a miss),
// as LookupSlot does.
func (c *Cache) WarmLookupSlot(b mem.Block) (*Line, int) {
	base := c.setBase(b)
	tags := c.tags[base : base+uint64(c.ways)]
	for i := range tags {
		if tags[i] == b {
			w := int(base) + i
			c.clock++
			c.uses[w] = c.clock
			return &c.lines[w], w
		}
	}
	return nil, -1
}

// WarmInsert fills block b in state st with the fill already complete
// (ReadyAt 0), choosing the victim exactly as Insert would but without
// counting the eviction. The caller propagates state effects (directory
// cleanup, back-invalidation) of a valid victim; no writeback is modelled.
func (c *Cache) WarmInsert(b mem.Block, st State) (victim Line, evicted bool) {
	victim, evicted, _ = c.WarmInsertSlot(b, st)
	return victim, evicted
}

// WarmInsertSlot is WarmInsert that also returns the slot b now occupies,
// as InsertSlot does.
func (c *Cache) WarmInsertSlot(b mem.Block, st State) (victim Line, evicted bool, slot int) {
	base := c.setBase(b)
	tags := c.tags[base : base+uint64(c.ways)]
	uses := c.uses[base : base+uint64(c.ways)]
	c.clock++
	free, lru := -1, 0
	for i := range tags {
		if tags[i] == b {
			l := &c.lines[base+uint64(i)]
			l.State = st
			l.Prefetched = false
			l.PrefetchWrite = false
			uses[i] = c.clock
			return Line{}, false, int(base) + i
		}
		if free < 0 {
			if tags[i] == noTag {
				free = i
			} else if uses[i] < uses[lru] {
				lru = i
			}
		}
	}
	vi := free
	if vi == -1 {
		vi = lru
		victim = c.lines[base+uint64(vi)]
		evicted = true
	}
	c.lines[base+uint64(vi)] = Line{Block: b, State: st, gen: c.gen}
	tags[vi] = b
	uses[vi] = c.clock
	return victim, evicted, int(base) + vi
}

// Snapshot is a deep copy of a cache's mutable state: the line, tag and LRU
// arrays, the LRU clock, the generation stamp, the in-flight miss heap and
// the statistics counters. It shares no memory with the cache it was taken
// from.
type Snapshot struct {
	lines []Line
	tags  []mem.Block
	uses  []uint64
	gen   uint64
	clock uint64

	outstanding []uint64 // ascending

	tagAccesses, hits, misses, evictions, writebacks uint64
}

// Snapshot deep-copies the cache's mutable state in canonical form: dead
// ways (tags[i] == noTag) are stored as zero lines/uses regardless of what
// garbage the recycled arena holds, and generation stamps are normalized to
// 1. Two caches with identical logical content therefore produce identical
// snapshots (reflect.DeepEqual-comparable) no matter their arena history.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{
		lines:       make([]Line, len(c.lines)),
		tags:        make([]mem.Block, len(c.tags)),
		uses:        make([]uint64, len(c.uses)),
		gen:         1,
		clock:       c.clock,
		tagAccesses: c.TagAccesses,
		hits:        c.Hits,
		misses:      c.Misses,
		evictions:   c.Evictions,
		writebacks:  c.Writebacks,
	}
	for i, tag := range c.tags {
		if tag == noTag {
			s.tags[i] = noTag
			continue
		}
		s.tags[i] = tag
		s.uses[i] = c.uses[i]
		s.lines[i] = c.lines[i]
		s.lines[i].gen = 1
	}
	if len(c.outstanding.a) > 0 {
		s.outstanding = append([]uint64(nil), c.outstanding.a...)
	}
	return s
}

// Restore overwrites the cache's mutable state with the snapshot's. The
// cache must have the same geometry as the snapshot's source. The canonical
// generation stamp (1) is adopted wholesale: liveness is tracked by the tag
// array, and line stamps stay nonzero, which is all Line.Valid requires.
func (c *Cache) Restore(s *Snapshot) {
	if len(c.lines) != len(s.lines) || c.ways == 0 {
		panic("cache: Restore with mismatched geometry")
	}
	copy(c.lines, s.lines)
	copy(c.tags, s.tags)
	copy(c.uses, s.uses)
	c.gen = s.gen
	c.clock = s.clock
	// Checkpoints written before the tracker kept its array sorted hold the
	// ready cycles in any order.
	c.outstanding.a = append(c.outstanding.a[:0], s.outstanding...)
	slices.Sort(c.outstanding.a)
	c.TagAccesses = s.tagAccesses
	c.Hits = s.hits
	c.Misses = s.misses
	c.Evictions = s.evictions
	c.Writebacks = s.writebacks
}
