package memsys

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"spb/internal/mem"
)

// wireStableDigest is the SHA-256 of the gob-encoded SystemSnapshot that
// wireStableRun builds, encoded by a process that has gob-encoded nothing
// before.
const wireStableDigest = "06ca893abb2bb8a8fb62db36b540da2155edb390632ef4cb966fd15d721c6921"

// TestSnapshotWireBytesStable pins the checkpoint wire form of the memory
// system: a fixed two-core run on a tiny hierarchy (demand loads and stores,
// store prefetches and functional-warming touches, with plenty of L3
// evictions) must encode to exactly the bytes recorded in wireStableDigest.
// Any change to how the directory, the caches or the counters are
// serialized — or to the state the run leaves behind — shows up here, so
// checkpoints written by older builds stay byte-compatible.
//
// gob numbers types process-wide in first-use order, so the bytes of an
// encoding depend on what the process encoded before it. The digest is
// therefore taken in a child process that runs only this test.
func TestSnapshotWireBytesStable(t *testing.T) {
	const childEnv = "SPB_WIRE_DIGEST_CHILD"
	if os.Getenv(childEnv) == "1" {
		os.Stdout.WriteString("digest=" + wireStableRun(t) + "\n")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSnapshotWireBytesStable$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child run: %v\n%s", err, out)
	}
	_, rest, ok := strings.Cut(string(out), "digest=")
	if !ok {
		t.Fatalf("child printed no digest:\n%s", out)
	}
	if got, _, _ := strings.Cut(rest, "\n"); got != wireStableDigest {
		t.Fatalf("SystemSnapshot wire digest = %s, want %s", got, wireStableDigest)
	}
}

// wireStableRun drives the fixed run and returns the hex SHA-256 of its
// encoded snapshot.
func wireStableRun(t *testing.T) string {
	s := New(tiny(), 2)
	defer s.Release()
	rng := rand.New(rand.NewSource(12))
	now := uint64(0)
	for i := 0; i < 5000; i++ {
		p := s.Port(rng.Intn(2))
		addr := mem.Addr(rng.Intn(384)) * mem.BlockSize
		now += uint64(rng.Intn(6))
		switch rng.Intn(6) {
		case 0, 1:
			p.Load(addr, 0x400000, now)
		case 2:
			r := p.StoreAcquire(addr, 0x400000, now)
			p.PerformStore(addr, 0x400000, r.Done)
		case 3:
			p.PrefetchOwn(mem.BlockOf(addr), now, rng.Intn(2) == 0)
		case 4:
			p.WarmTouch(addr, 4*mem.BlockSize, rng.Intn(2) == 0)
		default:
			if rng.Intn(2) == 0 {
				p.WarmLoad(addr)
			} else {
				p.WarmStore(addr)
			}
		}
	}
	// Quiesce: one far-future miss per core retires every in-flight fill,
	// so each MSHR tracker holds a single entry and the digest pins cache
	// and directory content rather than the trackers' internal order.
	now += 1 << 20
	for i := 0; i < s.Ports(); i++ {
		s.Port(i).Load(mem.Addr(1<<30+i*mem.BlockSize), 0x400000, now+uint64(i)<<20)
	}
	b, err := s.Snapshot().GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
