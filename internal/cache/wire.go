package cache

import (
	"bytes"
	"encoding/gob"
	"slices"

	"spb/internal/mem"
)

// Gob wire form of a Snapshot (crash-safe checkpoints, DESIGN.md §15). The
// snapshot's canonical form already normalizes generation stamps to 1 and
// zeroes dead ways, so the wire form only needs the logical content; decode
// re-derives line liveness from the tag array.

type lineWire struct {
	Block         mem.Block
	State         State
	ReadyAt       uint64
	Prefetched    bool
	PrefetchWrite bool
}

type snapshotWire struct {
	Lines []lineWire
	Tags  []mem.Block
	Uses  []uint64
	Clock uint64

	Outstanding []uint64
	OutMin      uint64 // smallest of Outstanding, 0 when empty; derivable, decode ignores it

	TagAccesses, Hits, Misses, Evictions, Writebacks uint64
}

// GobEncode implements gob.GobEncoder.
func (s *Snapshot) GobEncode() ([]byte, error) {
	w := snapshotWire{
		Lines:       make([]lineWire, len(s.lines)),
		Tags:        s.tags,
		Uses:        s.uses,
		Clock:       s.clock,
		Outstanding: s.outstanding,
		TagAccesses: s.tagAccesses,
		Hits:        s.hits,
		Misses:      s.misses,
		Evictions:   s.evictions,
		Writebacks:  s.writebacks,
	}
	if len(s.outstanding) > 0 {
		w.OutMin = slices.Min(s.outstanding)
	}
	for i, l := range s.lines {
		w.Lines[i] = lineWire{Block: l.Block, State: l.State, ReadyAt: l.ReadyAt,
			Prefetched: l.Prefetched, PrefetchWrite: l.PrefetchWrite}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (s *Snapshot) GobDecode(data []byte) error {
	var w snapshotWire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return err
	}
	s.lines = make([]Line, len(w.Lines))
	for i, l := range w.Lines {
		s.lines[i] = Line{Block: l.Block, State: l.State, ReadyAt: l.ReadyAt,
			Prefetched: l.Prefetched, PrefetchWrite: l.PrefetchWrite}
		if i < len(w.Tags) && w.Tags[i] != noTag {
			s.lines[i].gen = 1
		}
	}
	s.tags = w.Tags
	s.uses = w.Uses
	s.gen = 1
	s.clock = w.Clock
	s.outstanding = w.Outstanding
	s.tagAccesses = w.TagAccesses
	s.hits = w.Hits
	s.misses = w.Misses
	s.evictions = w.Evictions
	s.writebacks = w.Writebacks
	return nil
}
