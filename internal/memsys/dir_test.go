package memsys

import (
	"fmt"
	"math/rand"
	"testing"

	"spb/internal/cache"
	"spb/internal/mem"
)

// checkDirectory audits the in-L3 directory against the private caches:
// every valid private line has an L3 way (inclusion), that way's entry names
// the holding core as owner or sharer, and a writable private copy belongs
// to the entry's owner. Live entries name only attached cores.
func checkDirectory(s *System) error {
	all := uint64(1)<<uint(len(s.ports)) - 1
	for w := 0; w < s.l3.Slots(); w++ {
		if b, live := s.l3.SlotBlock(w); live {
			if o := s.dir.owner[w]; int(o) >= len(s.ports) || o < -1 {
				return fmt.Errorf("block %#x: owner %d out of range", b, o)
			}
			if s.dir.sharers[w]&^all != 0 {
				return fmt.Errorf("block %#x: sharers %#x name absent cores", b, s.dir.sharers[w])
			}
		}
	}
	for c, p := range s.ports {
		for _, pc := range []*cache.Cache{p.l1, p.l2} {
			for i := 0; i < pc.Slots(); i++ {
				b, live := pc.SlotBlock(i)
				if !live {
					continue
				}
				w := s.l3.Slot(b)
				if w < 0 {
					return fmt.Errorf("core %d %s holds block %#x the L3 does not", c, pc.Name(), b)
				}
				if s.dir.holders(w)&(1<<uint(c)) == 0 {
					return fmt.Errorf("core %d %s holds block %#x, directory has owner %d sharers %#x",
						c, pc.Name(), b, s.dir.owner[w], s.dir.sharers[w])
				}
				if pc.Peek(b).State.Writable() && int(s.dir.owner[w]) != c {
					return fmt.Errorf("core %d %s holds block %#x writable, directory owner is %d",
						c, pc.Name(), b, s.dir.owner[w])
				}
			}
		}
	}
	return s.CheckCoherence()
}

// TestDirectoryTracksPrivateCopies drives 2, 4 and 8 ports through a random
// mix of demand loads, acquire-and-perform stores, store prefetches and
// functional-warming accesses over a block space several times the tiny
// L3, so fills evict constantly and every entry is recycled many times.
// After every op the directory must still describe the private caches
// exactly (checkDirectory).
func TestDirectoryTracksPrivateCopies(t *testing.T) {
	for _, ports := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("ports=%d", ports), func(t *testing.T) {
			s := New(tiny(), ports)
			defer s.Release()
			rng := rand.New(rand.NewSource(int64(ports)))
			now := uint64(0)
			for op := 0; op < 6000; op++ {
				p := s.Port(rng.Intn(ports))
				addr := mem.Addr(rng.Intn(512)) * mem.BlockSize
				now += uint64(rng.Intn(5))
				var name string
				switch rng.Intn(7) {
				case 0, 1:
					name = "Load"
					p.Load(addr, 0x400000, now)
				case 2:
					name = "StoreAcquire+PerformStore"
					r := p.StoreAcquire(addr, 0x400000, now)
					p.PerformStore(addr, 0x400000, r.Done)
				case 3:
					name = "PrefetchOwn"
					p.PrefetchOwn(mem.BlockOf(addr), now, false)
				case 4:
					name = "WarmLoad"
					p.WarmLoad(addr)
				case 5:
					name = "WarmStore"
					p.WarmStore(addr)
				default:
					name = "WarmTouch"
					p.WarmTouch(addr, 3*mem.BlockSize, rng.Intn(2) == 0)
				}
				if err := checkDirectory(s); err != nil {
					t.Fatalf("op %d (%s by core %d at %#x): %v", op, name, p.ID(), addr, err)
				}
			}
			if s.BackInvals == 0 || s.Invalidations == 0 {
				t.Fatalf("run never exercised back-invalidation (%d) or invalidation (%d)", s.BackInvals, s.Invalidations)
			}
		})
	}
}

// TestL3FillAndLookupZeroAllocs guards the directory's allocation-free
// steady state: L3 hits, L3 fills that evict (and back-invalidate) a
// victim, and ownership transfers between cores allocate nothing.
func TestL3FillAndLookupZeroAllocs(t *testing.T) {
	s := New(tiny(), 2)
	defer s.Release()
	now := uint64(0)
	i := 0
	step := func() {
		// 1024 blocks cycle through a 128-way L3: most accesses miss and
		// fill over a victim; the alternating cores and the load/store mix
		// move ownership back and forth on the hits.
		for k := 0; k < 64; k++ {
			p := s.Port(i % 2)
			addr := mem.Addr((i*7)%1024) * mem.BlockSize
			now += 50
			if i%3 == 0 {
				p.StoreAcquire(addr, 0x400000, now)
			} else {
				p.Load(addr, 0x400000, now)
			}
			i++
		}
	}
	step() // grow the MSHR trackers to their steady-state capacity
	if avg := testing.AllocsPerRun(50, step); avg != 0 {
		t.Fatalf("L3 fill/lookup path allocates: %.2f allocs per 64-access batch", avg)
	}
	if s.l3.Evictions == 0 || s.L3Accesses == 0 {
		t.Fatal("the guarded path never filled over a victim")
	}
}
