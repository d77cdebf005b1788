package cpu

import (
	"math/rand"
	"slices"
	"testing"
)

// TestOccHeapMatchesMultiset drives occHeap and a naive multiset of release
// cycles through the same random sequence: adds up to three windows ahead
// (so the far heap fills and migrates into the ring), nondecreasing queries
// that sometimes jump more than a window, releaseCycle for several
// thresholds, and snapshot/restore partway through into a heap with stale
// buckets, so the rebuilt busy bitmap must be exact.
func TestOccHeapMatchesMultiset(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &occHeap{}
		var ref []uint64 // releases not yet expired
		now := uint64(0)
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(10); {
			case r < 5:
				rel := now + uint64(rng.Intn(3*occWindow))
				h.add(rel)
				ref = append(ref, rel)
			case r < 9:
				if rng.Intn(20) == 0 {
					now += uint64(rng.Intn(3 * occWindow))
				} else {
					now += uint64(rng.Intn(8))
				}
				ref = slices.DeleteFunc(ref, func(v uint64) bool { return v <= now })
				if got := h.occupancy(now); got != len(ref) {
					t.Fatalf("seed %d op %d: occupancy(%d) = %d, want %d", seed, op, now, got, len(ref))
				}
				sorted := slices.Clone(ref)
				slices.Sort(sorted)
				for _, threshold := range []int{1, 2, len(ref)/2 + 1, len(ref)} {
					if threshold < 1 || threshold > len(ref) {
						continue
					}
					want := sorted[len(ref)-threshold]
					if got := h.releaseCycle(threshold); got != want {
						t.Fatalf("seed %d op %d: releaseCycle(%d) = %d, want %d (count %d)",
							seed, op, threshold, got, want, len(ref))
					}
				}
			default:
				snap := h.snapshot()
				// Restore into a heap whose buckets and bitmap hold
				// unrelated entries, then release the original.
				h2 := &occHeap{}
				for i := 0; i < 50; i++ {
					h2.add(uint64(rng.Intn(occWindow)))
				}
				h2.restore(snap)
				h.release()
				h = h2
			}
		}
		h.release()
	}
}
