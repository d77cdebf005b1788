package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"spb/internal/mem"
)

func small() *Cache { // 4 sets x 2 ways
	return New("t", 4*2*64, 2, 4)
}

func TestNewGeometry(t *testing.T) {
	c := New("L1", 32<<10, 8, 64)
	if c.Sets() != 64 || c.Ways() != 8 {
		t.Fatalf("sets/ways = %d/%d, want 64/8", c.Sets(), c.Ways())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two sets should panic")
		}
	}()
	New("bad", 3*64, 1, 4)
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Lookup(5, true) != nil {
		t.Fatal("empty cache should miss")
	}
	c.Insert(5, Shared, 0, false, false)
	l := c.Lookup(5, true)
	if l == nil || l.State != Shared {
		t.Fatal("inserted block should hit in Shared")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestTagAccessesCounted(t *testing.T) {
	c := small()
	c.Lookup(1, true)
	c.Lookup(2, false)
	c.Peek(3)
	if c.TagAccesses != 2 {
		t.Fatalf("TagAccesses = %d, want 2 (Peek must not count)", c.TagAccesses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2 ways; blocks 0, 4, 8 map to set 0
	c.Insert(0, Modified, 0, false, false)
	c.Insert(4, Shared, 0, false, false)
	c.Lookup(0, true) // touch 0, making 4 the LRU
	victim, evicted := c.Insert(8, Shared, 0, false, false)
	if !evicted || victim.Block != 4 {
		t.Fatalf("victim = %+v evicted=%v, want block 4", victim, evicted)
	}
	if c.Lookup(0, true) == nil || c.Lookup(8, true) == nil {
		t.Fatal("blocks 0 and 8 should remain")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := small()
	c.Insert(0, Modified, 0, false, false)
	c.Insert(4, Shared, 0, false, false)
	victim, evicted := c.Insert(8, Shared, 0, false, false)
	if !evicted || victim.State != Modified {
		t.Fatal("LRU modified block should be the victim")
	}
	if c.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Writebacks)
	}
}

func TestInsertExistingUpgradesInPlace(t *testing.T) {
	c := small()
	c.Insert(0, Shared, 0, false, false)
	_, evicted := c.Insert(0, Modified, 10, false, false)
	if evicted {
		t.Fatal("upgrading a present block must not evict")
	}
	l := c.Peek(0)
	if l.State != Modified || l.ReadyAt != 10 {
		t.Fatalf("line = %+v, want Modified ready at 10", l)
	}
	if c.Evictions != 0 {
		t.Fatal("no eviction should be counted")
	}
}

func TestInvalidate(t *testing.T) {
	c := small()
	c.Insert(7, Modified, 0, false, false)
	old, ok := c.Invalidate(7)
	if !ok || old.State != Modified {
		t.Fatal("invalidate should return the old modified line")
	}
	if c.Peek(7) != nil {
		t.Fatal("block should be gone")
	}
	if _, ok := c.Invalidate(7); ok {
		t.Fatal("second invalidate should find nothing")
	}
}

func TestDowngrade(t *testing.T) {
	c := small()
	c.Insert(3, Modified, 0, false, false)
	present, dirty := c.Downgrade(3)
	if !present || !dirty {
		t.Fatal("downgrade of M should report present and dirty")
	}
	if c.Peek(3).State != Shared {
		t.Fatal("downgraded line should be Shared")
	}
	if p, _ := c.Downgrade(99); p {
		t.Fatal("downgrade of absent block should report absent")
	}
}

func TestInFlightFill(t *testing.T) {
	c := small()
	c.Insert(1, Modified, 100, true, true)
	l := c.Lookup(1, true)
	if l == nil {
		t.Fatal("in-flight line should be found by lookup")
	}
	if l.ReadyAt != 100 || !l.Prefetched || !l.PrefetchWrite {
		t.Fatalf("line = %+v, want prefetch-write fill ready at 100", l)
	}
}

func TestMSHRDelaysWhenFull(t *testing.T) {
	c := New("t", 4*2*64, 2, 2) // 2 MSHRs
	if got := c.MSHRAvailable(10); got != 10 {
		t.Fatalf("first miss issues at %d, want 10", got)
	}
	c.NoteMiss(50)
	if got := c.MSHRAvailable(11); got != 11 {
		t.Fatalf("second miss issues at %d, want 11", got)
	}
	c.NoteMiss(60)
	// Both MSHRs busy until 50/60: a third request at 12 waits for the
	// earliest completion (50).
	if got := c.MSHRAvailable(12); got != 50 {
		t.Fatalf("third miss issues at %d, want 50", got)
	}
	c.NoteMiss(70)
}

func TestMSHRExpires(t *testing.T) {
	c := New("t", 4*2*64, 2, 1)
	c.MSHRAvailable(0)
	c.NoteMiss(5)
	// At cycle 6 the previous miss has completed, so no delay.
	if got := c.MSHRAvailable(6); got != 6 {
		t.Fatalf("miss after expiry issues at %d, want 6", got)
	}
}

func TestOutstandingAt(t *testing.T) {
	c := New("t", 4*2*64, 2, 8)
	c.NoteMiss(10)
	c.NoteMiss(20)
	if n := c.OutstandingAt(5); n != 2 {
		t.Fatalf("outstanding at 5 = %d, want 2", n)
	}
	if n := c.OutstandingAt(15); n != 1 {
		t.Fatalf("outstanding at 15 = %d, want 1", n)
	}
	if n := c.OutstandingAt(25); n != 0 {
		t.Fatalf("outstanding at 25 = %d, want 0", n)
	}
}

func TestStateStringsAndWritable(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" ||
		Exclusive.String() != "E" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
	if Shared.Writable() || Invalid.Writable() {
		t.Fatal("S/I must not be writable")
	}
	if !Exclusive.Writable() || !Modified.Writable() {
		t.Fatal("E/M must be writable")
	}
}

// Property: a set never holds more valid lines than its associativity, and
// never holds the same block twice.
func TestSetInvariant(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		c := New("p", 8*4*64, 4, 8)
		for _, op := range ops {
			b := mem.Block(op % 256)
			switch op % 3 {
			case 0:
				c.Insert(b, Shared, 0, false, false)
			case 1:
				c.Insert(b, Modified, uint64(op), op%2 == 0, false)
			default:
				c.Invalidate(b)
			}
		}
		// Audit every set.
		for s := 0; s < c.Sets(); s++ {
			seen := map[mem.Block]bool{}
			count := 0
			for w := 0; w < c.Ways(); w++ {
				i := s*c.Ways() + w
				if c.tags[i] == noTag {
					continue
				}
				l := &c.lines[i]
				if c.tags[i] != l.Block || l.State == Invalid {
					return false // tag array out of sync with line record
				}
				count++
				if seen[l.Block] {
					return false // duplicate block in set
				}
				seen[l.Block] = true
				if int(uint64(l.Block)&c.setMask) != s {
					return false // block in wrong set
				}
			}
			if count > c.Ways() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the heap always pops ready times in nondecreasing order.
func TestMinHeapOrdering(t *testing.T) {
	f := func(vals []uint16) bool {
		var h minHeap
		for _, v := range vals {
			h.push(uint64(v))
		}
		prev := uint64(0)
		for h.len() > 0 {
			v := h.popMin()
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreSortsOutstanding: checkpoints written before the MSHR tracker
// kept its ready cycles in ascending order hold them in any order, and
// Restore must bring them back into order.
func TestRestoreSortsOutstanding(t *testing.T) {
	src := New("t", 4*2*64, 2, 3)
	snap := src.Snapshot()
	snap.outstanding = []uint64{40, 10, 30}
	b, err := snap.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var dec Snapshot
	if err := dec.GobDecode(b); err != nil {
		t.Fatal(err)
	}
	c := New("t", 4*2*64, 2, 3)
	c.Restore(&dec)
	if got := c.MaxOutstandingReady(0); got != 40 {
		t.Fatalf("MaxOutstandingReady = %d, want 40", got)
	}
	// All three MSHRs are busy: a miss at 5 waits for the earliest, 10.
	if got := c.MSHRAvailable(5); got != 10 {
		t.Fatalf("MSHRAvailable(5) = %d, want 10", got)
	}
	if n := c.OutstandingAt(35); n != 1 {
		t.Fatalf("outstanding at 35 = %d, want 1", n)
	}
}

// TestLineSize guards the packed Line layout: one more padded field grows
// every cache's line array by a quarter.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 32 {
		t.Fatalf("sizeof(Line) = %d bytes, want 32", n)
	}
}
