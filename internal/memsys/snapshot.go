package memsys

import (
	"sort"

	"spb/internal/cache"
	"spb/internal/dram"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// Deep snapshot/restore of the shared memory system (warm-start support,
// DESIGN.md §12). Everything mutable is copied: every cache array, the
// directory (kept with the L3's ways), the recent-eviction sets, the DRAM
// channel state and all statistics counters. The generic prefetcher is NOT part of the snapshot:
// functional warming never trains it, its type is a per-spec configuration
// knob, and a fork always starts it fresh — exactly matching a cold run.

// dirPair is one live directory entry in canonical form.
type dirPair struct {
	block   mem.Block
	owner   int8
	sharers uint64
}

// dirSnapshot is the canonical form of the directory: the entries of the
// live L3 ways, dealt into dirShards shards by dirHash and sorted by block
// within each shard. Way positions are deliberately absent, so the form
// depends only on which blocks the L3 holds and their coherence state. The
// sharding is that of the hash table the directory used to be, kept so
// checkpoints stay byte-compatible.
type dirSnapshot struct {
	shard [dirShards][]dirPair
}

func (s *System) snapshotDir() *dirSnapshot {
	snap := &dirSnapshot{}
	for w := 0; w < s.l3.Slots(); w++ {
		if b, live := s.l3.SlotBlock(w); live {
			i := dirHash(b) & (dirShards - 1)
			snap.shard[i] = append(snap.shard[i], dirPair{block: b, owner: s.dir.owner[w], sharers: s.dir.sharers[w]})
		}
	}
	for _, pairs := range snap.shard {
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].block < pairs[b].block })
	}
	return snap
}

// restoreDir writes the snapshot's entries into the ways of the (already
// restored) L3. The L3 holds exactly the blocks the directory tracks, so
// every live way gets its entry back.
func (s *System) restoreDir(snap *dirSnapshot) {
	for _, pairs := range snap.shard {
		for _, pr := range pairs {
			w := s.l3.Slot(pr.block)
			if w < 0 {
				panic("memsys: Restore: directory entry for a block the L3 does not hold")
			}
			s.dir.owner[w] = pr.owner
			s.dir.sharers[w] = pr.sharers
		}
	}
}

// recentSnapshot is a canonical deep copy of a recentSet: ring positions
// outside the live window and table slots with zero count are stored as
// zeros, not as whatever the recycled arrays held.
type recentSnapshot struct {
	ring   []mem.Block
	next   int
	filled bool
	keys   []mem.Block
	counts []uint32
}

func (r *recentSet) snapshot() *recentSnapshot {
	s := &recentSnapshot{
		ring:   make([]mem.Block, len(r.ring)),
		next:   r.next,
		filled: r.filled,
		keys:   make([]mem.Block, len(r.keys)),
		counts: append([]uint32(nil), r.counts...),
	}
	live := r.next
	if r.filled {
		live = len(r.ring)
	}
	copy(s.ring[:live], r.ring[:live])
	for i, n := range r.counts {
		if n != 0 {
			s.keys[i] = r.keys[i]
		}
	}
	return s
}

func (r *recentSet) restore(s *recentSnapshot) {
	if len(r.ring) != len(s.ring) || len(r.keys) != len(s.keys) {
		panic("memsys: recentSet restore with mismatched capacity")
	}
	copy(r.ring, s.ring)
	r.next = s.next
	r.filled = s.filled
	copy(r.keys, s.keys)
	copy(r.counts, s.counts)
}

// portSnapshot deep-copies one core's private hierarchy and counters.
type portSnapshot struct {
	l1, l2                 *cache.Snapshot
	evictedPF, victimsOfPF *recentSnapshot

	loads, stores, loadMisses, storeMisses, wrongPathLoads uint64

	spfIssued, spfDiscarded, spfMissToL2, spfSuccessful,
	spfLate, spfEarly, spfBurst uint64

	gpfIssued, gpfUsed, gpfLate, gpfPolluted uint64

	epochAccesses uint64
	lastFB        prefetch.Feedback
}

func (p *Port) snapshot() *portSnapshot {
	return &portSnapshot{
		l1:             p.l1.Snapshot(),
		l2:             p.l2.Snapshot(),
		evictedPF:      p.evictedPF.snapshot(),
		victimsOfPF:    p.victimsOfPF.snapshot(),
		loads:          p.Loads,
		stores:         p.Stores,
		loadMisses:     p.LoadMisses,
		storeMisses:    p.StoreMisses,
		wrongPathLoads: p.WrongPathLoads,
		spfIssued:      p.SPFIssued,
		spfDiscarded:   p.SPFDiscarded,
		spfMissToL2:    p.SPFMissToL2,
		spfSuccessful:  p.SPFSuccessful,
		spfLate:        p.SPFLate,
		spfEarly:       p.SPFEarly,
		spfBurst:       p.SPFBurst,
		gpfIssued:      p.GPFIssued,
		gpfUsed:        p.GPFUsed,
		gpfLate:        p.GPFLate,
		gpfPolluted:    p.GPFPolluted,
		epochAccesses:  p.epochAccesses,
		lastFB:         p.lastFB,
	}
}

func (p *Port) restore(s *portSnapshot) {
	p.l1.Restore(s.l1)
	p.l2.Restore(s.l2)
	p.evictedPF.restore(s.evictedPF)
	p.victimsOfPF.restore(s.victimsOfPF)
	p.Loads = s.loads
	p.Stores = s.stores
	p.LoadMisses = s.loadMisses
	p.StoreMisses = s.storeMisses
	p.WrongPathLoads = s.wrongPathLoads
	p.SPFIssued = s.spfIssued
	p.SPFDiscarded = s.spfDiscarded
	p.SPFMissToL2 = s.spfMissToL2
	p.SPFSuccessful = s.spfSuccessful
	p.SPFLate = s.spfLate
	p.SPFEarly = s.spfEarly
	p.SPFBurst = s.spfBurst
	p.GPFIssued = s.gpfIssued
	p.GPFUsed = s.gpfUsed
	p.GPFLate = s.gpfLate
	p.GPFPolluted = s.gpfPolluted
	p.epochAccesses = s.epochAccesses
	p.lastFB = s.lastFB
}

// SystemSnapshot is a deep copy of the full memory system state. It shares
// no memory with the system it was taken from.
type SystemSnapshot struct {
	l3    *cache.Snapshot
	dram  dram.Snapshot
	dir   *dirSnapshot
	ports []*portSnapshot

	l3Accesses, invalidations, writebacksL3, backInvals uint64
}

// Snapshot deep-copies the system's mutable state.
func (s *System) Snapshot() *SystemSnapshot {
	snap := &SystemSnapshot{
		l3:            s.l3.Snapshot(),
		dram:          s.dram.Snapshot(),
		dir:           s.snapshotDir(),
		l3Accesses:    s.L3Accesses,
		invalidations: s.Invalidations,
		writebacksL3:  s.WritebacksL3,
		backInvals:    s.BackInvals,
	}
	for _, p := range s.ports {
		snap.ports = append(snap.ports, p.snapshot())
	}
	return snap
}

// Restore overwrites the system's mutable state with the snapshot's. The
// system must have the same geometry (core count, cache configuration) as
// the snapshot's source. Prefetcher state is untouched.
func (s *System) Restore(snap *SystemSnapshot) {
	if len(s.ports) != len(snap.ports) {
		panic("memsys: Restore with mismatched core count")
	}
	s.l3.Restore(snap.l3)
	s.restoreDir(snap.dir)
	s.dram.Restore(snap.dram)
	for i, p := range s.ports {
		p.restore(snap.ports[i])
	}
	s.L3Accesses = snap.l3Accesses
	s.Invalidations = snap.invalidations
	s.WritebacksL3 = snap.writebacksL3
	s.BackInvals = snap.backInvals
}
