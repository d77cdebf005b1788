// Package memsys assembles the memory hierarchy the cores talk to: private
// L1D and L2 caches per core, a shared inclusive L3 with a directory-based
// MESI protocol, and DRAM behind a bandwidth model. It resolves every
// request immediately against the current coherence state while charging
// realistic latencies, enforces MSHR capacity at each level, classifies
// store-prefetch outcomes (successful / late / early / never used, the
// Fig. 11 taxonomy), and counts the tag accesses and network traffic the
// paper's overhead figures (Figs. 12 and 13) report.
package memsys

import (
	"fmt"
	"math/bits"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/dram"
	"spb/internal/mem"
	"spb/internal/prefetch"
)

// probeLat is the extra latency of snooping a remote private cache through
// the directory (forwarded request + response).
const probeLat = 24

// fdpEpoch is the number of demand accesses between feedback deliveries to
// an adaptive prefetcher.
const fdpEpoch = 8192

// System is the shared part of the memory hierarchy.
type System struct {
	cfg   config.MachineConfig
	l3    *cache.Cache
	dram  *dram.DRAM
	dir   *directory // coherence state per L3 way
	ports []*Port

	// Traffic counters for the shared fabric.
	L3Accesses    uint64
	Invalidations uint64
	WritebacksL3  uint64
	BackInvals    uint64
}

// New builds a memory system with n cores' private hierarchies attached.
func New(cfg config.MachineConfig, n int) *System {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("memsys: core count %d out of range 1..64", n))
	}
	s := &System{
		cfg:  cfg,
		l3:   cache.New("L3", cfg.L3.SizeBytes, cfg.L3.Ways, cfg.L3.MSHRs),
		dram: dram.New(cfg.DRAM.LatencyCyc, cfg.DRAM.CyclesPerBlock, cfg.DRAM.MaxOutstanding),
	}
	s.dir = newDirectory(s.l3.Slots())
	for i := 0; i < n; i++ {
		s.ports = append(s.ports, &Port{
			sys:         s,
			id:          i,
			l1:          cache.New("L1D", cfg.L1D.SizeBytes, cfg.L1D.Ways, cfg.L1D.MSHRs),
			l2:          cache.New("L2", cfg.L2.SizeBytes, cfg.L2.Ways, cfg.L2.MSHRs),
			pf:          prefetch.New(cfg.Prefetcher),
			evictedPF:   newRecentSet(8192),
			victimsOfPF: newRecentSet(4096),
		})
	}
	return s
}

// Release returns the System's large arrays — every cache's line arena, the
// directory arrays and the recent-eviction sets — to internal pools so the
// next System constructed with the same geometry reuses them instead of
// allocating afresh. Call it when a simulation run is finished with the
// System; using the System afterwards is a bug. Skipping Release only
// forfeits the reuse.
func (s *System) Release() {
	s.l3.Release()
	for _, p := range s.ports {
		p.l1.Release()
		p.l2.Release()
		p.evictedPF.release()
		p.victimsOfPF.release()
	}
	s.dir.release()
	s.dir = nil
}

// Port returns core i's private port.
func (s *System) Port(i int) *Port { return s.ports[i] }

// Ports returns the number of attached cores.
func (s *System) Ports() int { return len(s.ports) }

// L3 exposes the shared cache for statistics reporting.
func (s *System) L3() *cache.Cache { return s.l3 }

// DRAM exposes the memory model for statistics reporting.
func (s *System) DRAM() *dram.DRAM { return s.dram }

// invalidateOthers removes every copy of b held by cores other than
// requester, where w is b's L3 way, and returns the number of remote probes
// sent (each one an invalidation). The caller charges the probe latency and
// the Invalidations counter; functional warming charges neither.
func (s *System) invalidateOthers(b mem.Block, w, requester int) (probes uint64) {
	d := s.dir
	if owner := int(d.owner[w]); owner >= 0 && owner != requester {
		p := s.ports[owner]
		p.l1.Invalidate(b)
		p.l2.Invalidate(b)
		d.owner[w] = -1
		probes++
	}
	for c := 0; c < len(s.ports); c++ {
		if c == requester || d.sharers[w]&(1<<uint(c)) == 0 {
			continue
		}
		p := s.ports[c]
		p.l1.Invalidate(b)
		p.l2.Invalidate(b)
		probes++
	}
	d.sharers[w] &= 1 << uint(requester)
	return probes
}

// downgradeOwner converts a remote exclusive/modified copy of b (L3 way w)
// to shared so the requester can read, and reports whether it had to probe
// a remote owner.
func (s *System) downgradeOwner(b mem.Block, w, requester int) (probed bool) {
	d := s.dir
	owner := int(d.owner[w])
	if owner < 0 || owner == requester {
		return false
	}
	p := s.ports[owner]
	p.l1.Downgrade(b)
	p.l2.Downgrade(b)
	d.sharers[w] |= 1 << uint(owner)
	d.owner[w] = -1
	return true
}

// l3Fill inserts b into the L3 and returns its way, whose directory entry is
// reset to ownerless. A valid victim is first back-invalidated in every
// private hierarchy its entry names (inclusion), and dirty data goes back to
// DRAM.
func (s *System) l3Fill(b mem.Block, st cache.State, ready uint64) int {
	victim, evicted, w := s.l3.InsertSlot(b, st, ready, false, false)
	if evicted {
		if victim.State == cache.Modified {
			s.dram.Write(ready)
			s.WritebacksL3++
		}
		for h := s.dir.holders(w); h != 0; h &= h - 1 {
			p := s.ports[bits.TrailingZeros64(h)]
			if line, ok := p.l1.Invalidate(victim.Block); ok && line.State == cache.Modified {
				s.dram.Write(ready)
			}
			if line, ok := p.l2.Invalidate(victim.Block); ok && line.State == cache.Modified {
				s.dram.Write(ready)
			}
			s.BackInvals++
		}
	}
	s.dir.reset(w)
	return w
}

// readShared obtains block b for reading on behalf of requester, returning
// the cycle the data reaches the requester's L2 boundary and the level that
// supplied it (3 = L3, 4 = DRAM).
func (s *System) readShared(b mem.Block, requester int, t uint64) (done uint64, level int) {
	s.L3Accesses++
	if line, w := s.l3.LookupSlot(b, true); line != nil {
		done = t + uint64(s.cfg.L3.LatencyCyc)
		if s.downgradeOwner(b, w, requester) {
			s.Invalidations++
			done += probeLat
		}
		if line.ReadyAt > done {
			done = line.ReadyAt
		}
		s.dir.sharers[w] |= 1 << uint(requester)
		return done, 3
	}
	// L3 miss: fetch from DRAM. The L3 is inclusive, so no core holds b and
	// there is nothing to probe.
	issue := s.l3.MSHRAvailable(t + uint64(s.cfg.L3.LatencyCyc))
	done = s.dram.Read(issue)
	s.l3.NoteMiss(done)
	w := s.l3Fill(b, cache.Shared, done)
	s.dir.sharers[w] |= 1 << uint(requester)
	return done, 4
}

// readExclusive obtains block b with write permission for requester,
// invalidating every other copy.
func (s *System) readExclusive(b mem.Block, requester int, t uint64) (done uint64, level int) {
	s.L3Accesses++
	if line, w := s.l3.LookupSlot(b, true); line != nil {
		done = t + uint64(s.cfg.L3.LatencyCyc)
		if probes := s.invalidateOthers(b, w, requester); probes > 0 {
			s.Invalidations += probes
			done += probeLat
		}
		if line.ReadyAt > done {
			done = line.ReadyAt
		}
		line.State = cache.Modified // L3 tracks the block as owned above
		s.dir.owner[w] = int8(requester)
		s.dir.sharers[w] = 0
		return done, 3
	}
	issue := s.l3.MSHRAvailable(t + uint64(s.cfg.L3.LatencyCyc))
	done = s.dram.Read(issue)
	s.l3.NoteMiss(done)
	w := s.l3Fill(b, cache.Modified, done)
	s.dir.owner[w] = int8(requester)
	return done, 4
}

// CheckCoherence audits the protocol invariants: a block with an owner must
// have no foreign sharers, and no two cores may hold the same block in a
// writable state. It returns the first violation found, or nil.
func (s *System) CheckCoherence() error {
	for w := 0; w < s.l3.Slots(); w++ {
		b, live := s.l3.SlotBlock(w)
		if !live {
			continue
		}
		owner, sharers := s.dir.owner[w], s.dir.sharers[w]
		if owner >= 0 && sharers&^(1<<uint(owner)) != 0 {
			return fmt.Errorf("memsys: block %#x has owner %d and sharers %#x", b, owner, sharers)
		}
		writable := 0
		for _, p := range s.ports {
			if l := p.l1.Peek(b); l != nil && l.State.Writable() {
				writable++
			}
		}
		if writable > 1 {
			return fmt.Errorf("memsys: block %#x writable in %d L1 caches", b, writable)
		}
	}
	return nil
}
