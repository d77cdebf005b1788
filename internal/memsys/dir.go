package memsys

import (
	"sync"

	"spb/internal/mem"
)

// directory is the coherence directory, kept beside the L3's ways: the L3 is
// inclusive, so every block a private cache holds has an L3 way, and that
// way carries the block's owner and sharer set. Indexing by L3 slot (see
// cache.LookupSlot) means the tag scan an L3 access makes anyway also finds
// the directory entry, and an L3 eviction retires the entry with its way.
//
// owner[w] >= 0 means that core holds way w's block in E or M; sharers[w]
// is the bitmask of cores holding it in S. Every L3 fill resets its way's
// entry and an empty way's entry is never read, so a recycled directory
// needs no clearing.
type directory struct {
	owner   []int8
	sharers []uint64
}

// dirShards is the number of shards in the canonical directory snapshot
// (blocks are dealt to shards by the low bits of dirHash).
const dirShards = 16

// dirHash is the splitmix64 finalizer: block addresses are highly regular
// (sequential, strided), so every input bit must influence the index.
func dirHash(b mem.Block) uint64 {
	x := uint64(b)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

var dirPools sync.Map // L3 slot count -> *sync.Pool of *directory

func newDirectory(slots int) *directory {
	if p, ok := dirPools.Load(slots); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			return v.(*directory)
		}
	}
	return &directory{owner: make([]int8, slots), sharers: make([]uint64, slots)}
}

// release hands the directory back for reuse by a later System with the same
// L3 geometry. The directory must not be used afterwards.
func (d *directory) release() {
	p, _ := dirPools.LoadOrStore(len(d.owner), &sync.Pool{})
	p.(*sync.Pool).Put(d)
}

// reset makes way w's entry ownerless with no sharers: the state of a block
// just filled into the L3.
func (d *directory) reset(w int) {
	d.owner[w] = -1
	d.sharers[w] = 0
}

// holders returns the cores way w's entry records as owner or sharer, as a
// bitmask.
func (d *directory) holders(w int) uint64 {
	h := d.sharers[w]
	if o := d.owner[w]; o >= 0 {
		h |= 1 << uint(o)
	}
	return h
}
