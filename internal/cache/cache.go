// Package cache implements the set-associative cache arrays used at every
// level of the hierarchy: MESI line states, LRU replacement, tag-access
// accounting, in-flight fills (a line knows when its data/permission
// actually arrives, which is how late prefetches are detected), and an
// MSHR capacity model that bounds outstanding misses per cache.
package cache

import (
	"fmt"
	"sync"

	"spb/internal/mem"
)

// State is a MESI coherence state. Levels below the L1 mostly use
// Shared/Modified; the full set exists so the directory protocol in
// package memsys can be expressed uniformly.
type State uint8

const (
	// Invalid: the line holds no valid block.
	Invalid State = iota
	// Shared: read-only copy; other caches may hold it too.
	Shared
	// Exclusive: only copy, clean; may be written without a request.
	Exclusive
	// Modified: only copy, dirty; must be written back on eviction.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Writable reports whether a store may perform against this state without a
// coherence request.
func (s State) Writable() bool { return s == Exclusive || s == Modified }

// Line is one cache line. The zero value is an invalid line.
//
// Fields are ordered widest first, so a Line takes 32 bytes rather than the
// 40 that interleaving the one-byte fields with the words would cost; the
// L3's line array is the largest allocation of a run.
type Line struct {
	Block mem.Block
	// ReadyAt is the cycle at which the fill (data and/or permission)
	// completes. A demand access finding ReadyAt in the future has hit an
	// in-flight miss — for prefetched lines, that is a late prefetch.
	ReadyAt uint64
	// gen stamps the cache generation that filled the line; it only backs
	// Valid() on line copies handed out by Insert/Invalidate. Liveness of a
	// way inside the array is tracked by the cache's packed tag array.
	gen   uint64
	State State
	// Prefetched marks a line filled by a prefetch that no demand access
	// has consumed yet; used for the Fig. 11 accuracy taxonomy.
	Prefetched bool
	// PrefetchWrite records that the prefetch requested ownership
	// (prefetch-exclusive), as the at-commit/at-execute/SPB policies do.
	PrefetchWrite bool
}

// Valid reports whether the line holds a block. For lines returned by
// Lookup/Peek (always live) and for victim copies returned by Insert and
// Invalidate.
func (l *Line) Valid() bool { return l.gen != 0 && l.State != Invalid }

// noTag marks an empty way in the packed tag array. No real block reaches it:
// it would require an address in the top 64 bytes of the address space.
const noTag = ^mem.Block(0)

// arena is a reusable backing store: the line array plus the parallel packed
// tag and recency arrays the scans walk, and the last generation stamp.
// Caches of the same geometry recycle arenas through a pool; a fresh user
// resets only the tag array (8 bytes per way) and bumps gen, so per-run setup
// never allocates or zeroes the multi-megabyte line array.
type arena struct {
	lines []Line
	tags  []mem.Block
	uses  []uint64
	gen   uint64
}

var arenaPools sync.Map // line count -> *sync.Pool of *arena

func poolFor(n int) *sync.Pool {
	if p, ok := arenaPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := arenaPools.LoadOrStore(n, &sync.Pool{})
	return p.(*sync.Pool)
}

// Cache is one set-associative cache array. The tag and LRU metadata the
// hot scans read live in packed parallel arrays (8 bytes per way each), so a
// whole set's tags fit in one or two hardware cache lines; the full Line
// records are touched only on a match or a fill.
type Cache struct {
	name    string
	ways    int
	setMask uint64
	lines   []Line      // sets*ways, set-major
	tags    []mem.Block // block per way; noTag = empty way (authoritative liveness)
	uses    []uint64    // LRU clocks, parallel to tags
	ar      *arena      // backing storage, recycled via Release
	gen     uint64      // stamp written into inserted lines (backs Line.Valid)
	clock   uint64

	mshrs       int
	outstanding minHeap // ready cycles of in-flight misses

	// Statistics, read by the memory system's reporting layer.
	TagAccesses uint64
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Writebacks  uint64
}

// New constructs a cache with the given geometry. Sets must be a power of
// two; sizeBytes = sets * ways * 64.
func New(name string, sizeBytes, ways, mshrs int) *Cache {
	sets := sizeBytes / (mem.BlockSize * ways)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d is not a positive power of two", name, sets))
	}
	if mshrs <= 0 {
		panic(fmt.Sprintf("cache %s: MSHR count must be positive", name))
	}
	var ar *arena
	if v := poolFor(sets * ways).Get(); v != nil {
		ar = v.(*arena)
	} else {
		n := sets * ways
		ar = &arena{lines: make([]Line, n), tags: make([]mem.Block, n), uses: make([]uint64, n)}
	}
	ar.gen++
	for i := range ar.tags {
		ar.tags[i] = noTag
	}
	return &Cache{
		name:    name,
		ways:    ways,
		setMask: uint64(sets - 1),
		lines:   ar.lines,
		tags:    ar.tags,
		uses:    ar.uses,
		ar:      ar,
		gen:     ar.gen,
		mshrs:   mshrs,
	}
}

// Release returns the line array to the geometry's shared pool so a later
// cache can reuse it without reallocating or zeroing. The cache must not be
// used afterwards. Skipping Release is always safe — the array is simply
// garbage collected.
func (c *Cache) Release() {
	if c.ar == nil {
		return
	}
	poolFor(len(c.ar.lines)).Put(c.ar)
	c.ar = nil
	c.lines = nil
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.lines) / c.ways }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// setBase returns the index of b's set's first way in the parallel arrays.
func (c *Cache) setBase(b mem.Block) uint64 {
	return (uint64(b) & c.setMask) * uint64(c.ways)
}

// Lookup performs a tag access for block b and returns the line holding it,
// or nil on a miss. When touch is true the access updates LRU state and the
// hit/miss counters (demand accesses); probe-only lookups (snoops,
// duplicate-prefetch filtering) pass false.
func (c *Cache) Lookup(b mem.Block, touch bool) *Line {
	l, _ := c.LookupSlot(b, touch)
	return l
}

// LookupSlot is Lookup that also returns the slot of the way holding b: its
// index in [0, Slots()), or -1 on a miss. A slot names a way, not a block —
// it stays b's until b is evicted or invalidated — so callers can keep
// per-way side state (the L3's directory) in arrays parallel to the cache.
func (c *Cache) LookupSlot(b mem.Block, touch bool) (*Line, int) {
	c.TagAccesses++
	base := c.setBase(b)
	tags := c.tags[base : base+uint64(c.ways)]
	for i := range tags {
		if tags[i] == b {
			w := int(base) + i
			if touch {
				c.clock++
				c.uses[w] = c.clock
				c.Hits++
			}
			return &c.lines[w], w
		}
	}
	if touch {
		c.Misses++
	}
	return nil, -1
}

// Slot returns the slot holding b, or -1 when b is absent, without counting
// a tag access or touching LRU (a Peek for per-way side state).
func (c *Cache) Slot(b mem.Block) int {
	base := c.setBase(b)
	tags := c.tags[base : base+uint64(c.ways)]
	for i := range tags {
		if tags[i] == b {
			return int(base) + i
		}
	}
	return -1
}

// Slots returns the number of ways in the whole array (sets * ways): the
// length of an array indexed by slot.
func (c *Cache) Slots() int { return len(c.tags) }

// SlotBlock returns the block held by slot w and whether the way is live.
func (c *Cache) SlotBlock(w int) (mem.Block, bool) {
	b := c.tags[w]
	return b, b != noTag
}

// Peek returns the line holding b without counting a tag access or touching
// LRU. For invariant checks and directory consistency audits.
func (c *Cache) Peek(b mem.Block) *Line {
	if w := c.Slot(b); w >= 0 {
		return &c.lines[w]
	}
	return nil
}

// Insert fills block b in state st, with the fill completing at readyAt.
// It returns the victim line (by value) and whether a valid victim was
// evicted; the caller handles the writeback if victim.State == Modified.
// Inserting a block already present updates that line in place instead.
func (c *Cache) Insert(b mem.Block, st State, readyAt uint64, prefetched, pfWrite bool) (victim Line, evicted bool) {
	victim, evicted, _ = c.InsertSlot(b, st, readyAt, prefetched, pfWrite)
	return victim, evicted
}

// InsertSlot is Insert that also returns the slot b now occupies. When a
// victim was evicted, that slot is the one the victim left.
func (c *Cache) InsertSlot(b mem.Block, st State, readyAt uint64, prefetched, pfWrite bool) (victim Line, evicted bool, slot int) {
	base := c.setBase(b)
	tags := c.tags[base : base+uint64(c.ways)]
	uses := c.uses[base : base+uint64(c.ways)]
	c.clock++
	// One pass over the packed tags finds the matching way (an upgrade
	// miss: update in place), the first free way, and the LRU victim among
	// the rest; the line records stay untouched until the way is chosen.
	free, lru := -1, 0
	for i := range tags {
		if tags[i] == b {
			l := &c.lines[base+uint64(i)]
			l.State = st
			if readyAt > l.ReadyAt {
				l.ReadyAt = readyAt
			}
			l.Prefetched = prefetched
			l.PrefetchWrite = pfWrite
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
		c.Evictions++
		if victim.State == Modified {
			c.Writebacks++
		}
	}
	c.lines[base+uint64(vi)] = Line{
		Block:         b,
		State:         st,
		ReadyAt:       readyAt,
		Prefetched:    prefetched,
		PrefetchWrite: pfWrite,
		gen:           c.gen,
	}
	tags[vi] = b
	uses[vi] = c.clock
	return victim, evicted, int(base) + vi
}

// Invalidate removes block b, returning the invalidated line and whether it
// was present (the caller handles a dirty writeback / data transfer).
func (c *Cache) Invalidate(b mem.Block) (Line, bool) {
	base := c.setBase(b)
	tags := c.tags[base : base+uint64(c.ways)]
	for i := range tags {
		if tags[i] == b {
			l := &c.lines[base+uint64(i)]
			old := *l
			*l = Line{}
			tags[i] = noTag
			return old, true
		}
	}
	return Line{}, false
}

// Downgrade moves block b to Shared (directory fetched the data for a remote
// reader). Returns whether the block was present and was dirty.
func (c *Cache) Downgrade(b mem.Block) (present, wasDirty bool) {
	base := c.setBase(b)
	tags := c.tags[base : base+uint64(c.ways)]
	for i := range tags {
		if tags[i] == b {
			l := &c.lines[base+uint64(i)]
			wasDirty = l.State == Modified
			l.State = Shared
			return true, wasDirty
		}
	}
	return false, false
}

// OutstandingAt returns the number of misses still in flight at cycle t.
func (c *Cache) OutstandingAt(t uint64) int {
	c.outstanding.expire(t)
	return c.outstanding.len()
}

// MaxOutstandingReady returns the latest completion cycle among the misses
// still in flight at cycle t, or 0 when none are. The event-horizon
// scheduler uses it to batch "miss pending" stall accounting over a skipped
// span: cycle u has a miss in flight exactly when u < MaxOutstandingReady(t)
// (no new misses are issued while the core is idle).
func (c *Cache) MaxOutstandingReady(t uint64) uint64 {
	c.outstanding.expire(t)
	return c.outstanding.max()
}

// MSHRAvailable returns the cycle at which a miss issued at t can actually
// allocate an MSHR: t itself when a slot is free, otherwise the completion
// of the earliest outstanding fill. The caller computes the downstream
// latency from the returned cycle and then records it with NoteMiss.
func (c *Cache) MSHRAvailable(t uint64) (issueAt uint64) {
	c.outstanding.expire(t)
	issueAt = t
	for c.outstanding.len() >= c.mshrs {
		earliest := c.outstanding.popMin()
		if earliest > issueAt {
			issueAt = earliest
		}
	}
	return issueAt
}

// NoteMiss records an outstanding miss whose fill completes at ready.
func (c *Cache) NoteMiss(ready uint64) {
	c.outstanding.push(ready)
}

// minHeap tracks the ready cycles of in-flight fills as an ascending array.
// Its length is bounded by the MSHR count (≤64), so shifting beats a binary
// heap here: the common expire call removes nothing (one compare against the
// first element), an expire that does remove work drops a whole prefix of
// completions at once, popMin drops the first element, and the latest
// completion is simply the last. push inserts from the back, where fills
// issued in order usually land.
type minHeap struct {
	a []uint64 // ascending
}

func (h *minHeap) len() int { return len(h.a) }

func (h *minHeap) push(v uint64) {
	h.a = append(h.a, v)
	i := len(h.a) - 1
	for ; i > 0 && h.a[i-1] > v; i-- {
		h.a[i] = h.a[i-1]
	}
	h.a[i] = v
}

func (h *minHeap) popMin() uint64 {
	v := h.a[0]
	h.drop(1)
	return v
}

// max returns the latest ready cycle, or 0 when empty.
func (h *minHeap) max() uint64 {
	if len(h.a) == 0 {
		return 0
	}
	return h.a[len(h.a)-1]
}

// drop removes the k earliest ready cycles.
func (h *minHeap) drop(k int) {
	h.a = h.a[:copy(h.a, h.a[k:])]
}

// expire drops fills that completed at or before t.
func (h *minHeap) expire(t uint64) {
	if len(h.a) == 0 || h.a[0] > t {
		return
	}
	k := 1
	for k < len(h.a) && h.a[k] <= t {
		k++
	}
	h.drop(k)
}
