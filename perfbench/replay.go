package main

import (
	"time"

	"spb/internal/cache"
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/dram"
	"spb/internal/mem"
	"spb/internal/memsys"
	"spb/internal/prefetch"
	"spb/internal/sim"
	"spb/internal/storebuf"
	"spb/internal/tlb"
	"spb/internal/trace"
	"spb/internal/workloads"
)

// replayInsts is how many instructions of each workload's stream the
// per-layer replays drive through the layers' public functions.
const replayInsts = 100_000

// replayReps is how often each replay is timed; the fastest counts.
const replayReps = 3

// newReader builds the instruction stream a spec's first core runs, from
// the workload's own generator and the spec's seed.
func newReader(s sim.RunSpec) (trace.Reader, error) {
	if s.Cores <= 1 {
		w, err := workloads.SPECByName(s.Workload)
		if err != nil {
			return nil, err
		}
		return w.Build(s.Seed), nil
	}
	p, err := workloads.PARSECByName(s.Workload)
	if err != nil {
		return nil, err
	}
	return p.Build(s.Seed, s.Cores)[0], nil
}

// stream is one recorded instruction stream with the memory operations
// split out and classified against an L1- and an LLC-sized cache.
type stream struct {
	spec      sim.RunSpec
	insts     []trace.Inst
	mem       []trace.Inst // loads and stores, in order
	l1Miss    []bool       // per mem op: missed a cold L1D fed with the stream
	l1Misses  []mem.Block  // the blocks that missed, in order
	llcMisses []mem.Block
}

func recordStreams(specs []sim.RunSpec) ([]stream, error) {
	m := config.Skylake()
	seen := map[string]bool{}
	var out []stream
	for _, s := range specs {
		if seen[s.Workload] {
			continue
		}
		seen[s.Workload] = true
		r, err := newReader(s)
		if err != nil {
			return nil, err
		}
		st := stream{spec: s, insts: trace.Collect(r, replayInsts)}
		l1 := cache.New("L1D", m.L1D.SizeBytes, m.L1D.Ways, m.L1D.MSHRs)
		llc := cache.New("L3", m.L3.SizeBytes, m.L3.Ways, m.L3.MSHRs)
		for _, in := range st.insts {
			if !in.Kind.IsMem() {
				continue
			}
			st.mem = append(st.mem, in)
			b := mem.BlockOf(in.Addr)
			miss := l1.WarmLookup(b) == nil
			st.l1Miss = append(st.l1Miss, miss)
			if miss {
				l1.WarmInsert(b, cache.Modified)
				st.l1Misses = append(st.l1Misses, b)
				if llc.WarmLookup(b) == nil {
					llc.WarmInsert(b, cache.Modified)
					st.llcMisses = append(st.llcMisses, b)
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// timeBest runs f replayReps times and returns its fastest wall time.
func timeBest(f func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < replayReps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return best
}

// perCall accumulates time and calls over all streams of one replay.
type perCall struct {
	d     time.Duration
	calls int
}

func (p *perCall) add(d time.Duration, calls int) { p.d += d; p.calls += calls }

func (p perCall) ns() float64 {
	if p.calls == 0 {
		return 0
	}
	return float64(p.d) / float64(p.calls)
}

// sink keeps the replayed calls' results live, so the compiler cannot
// drop the calls being timed.
var sink uint64

// replayLayers times each layer's public functions over streams recorded
// from the grid's own workloads and reports host ns per call.
func replayLayers(specs []sim.RunSpec, pf config.PrefetcherKind, rep *report) error {
	streams, err := recordStreams(specs)
	if err != nil {
		return err
	}
	m := config.Skylake().WithPrefetcher(pf)
	var next, skip, fwd, obs, lookup, insL1, insLLC, warmIns, load, acquire, touch, read, pfObs, xlate perCall
	for _, st := range streams {
		// trace: generating the stream, and skipping it as sampling does.
		next.add(timeBest(func() {
			r, _ := newReader(st.spec)
			var in trace.Inst
			for i := 0; i < replayInsts; i++ {
				r.Next(&in)
			}
		}), replayInsts)
		// Only single-stream programs can skip; PARSEC threads wrap theirs.
		if r, _ := newReader(st.spec); isProgram(r) {
			skip.add(timeBest(func() {
				r, _ := newReader(st.spec)
				r.(*trace.Program).SkipTouch(10*replayInsts, func(_ mem.Addr, n uint64, _ bool) { sink += n })
			}), 10*replayInsts)
		}

		// storebuf: the loop with and without Forward; the difference is
		// the associative search.
		sbLoop := func(forward bool) func() {
			return func() {
				sb := storebuf.New(14)
				for _, in := range st.mem {
					if in.Kind == trace.KindStore {
						if sb.Full() {
							sb.Pop()
						}
						sb.Commit(sb.Allocate(in.Addr, in.Size, in.PC))
					} else if forward {
						sink += uint64(sb.Forward(in.Addr, in.Size, sb.TailSeq()))
					}
				}
			}
		}
		loads := 0
		for _, in := range st.mem {
			if in.Kind != trace.KindStore {
				loads++
			}
		}
		if d := timeBest(sbLoop(true)) - timeBest(sbLoop(false)); d > 0 {
			fwd.add(d, loads)
		} else {
			fwd.add(0, loads)
		}

		stores := len(st.mem) - loads
		obs.add(timeBest(func() {
			d := core.NewDetector(m.SPB.WindowN, false)
			for _, in := range st.mem {
				if in.Kind == trace.KindStore {
					if _, ok := d.Observe(in.Addr, in.Size); ok {
						sink++
					}
				}
			}
		}), stores)

		// cache: lookups against a cache warmed with the stream, and fills
		// of the blocks that miss at L1 and LLC geometry.
		warm := cache.New("L1D", m.L1D.SizeBytes, m.L1D.Ways, m.L1D.MSHRs)
		for _, b := range st.l1Misses {
			warm.WarmInsert(b, cache.Modified)
		}
		lookup.add(timeBest(func() {
			for _, in := range st.mem {
				if warm.Lookup(mem.BlockOf(in.Addr), true) != nil {
					sink++
				}
			}
		}), len(st.mem))
		insL1.add(timeBest(func() {
			c := cache.New("L1D", m.L1D.SizeBytes, m.L1D.Ways, m.L1D.MSHRs)
			for i, b := range st.l1Misses {
				c.Insert(b, cache.Modified, uint64(i), false, false)
			}
		}), len(st.l1Misses))
		insLLC.add(timeBest(func() {
			c := cache.New("L3", m.L3.SizeBytes, m.L3.Ways, m.L3.MSHRs)
			for i, b := range st.llcMisses {
				c.Insert(b, cache.Modified, uint64(i), false, false)
			}
		}), len(st.llcMisses))
		warmIns.add(timeBest(func() {
			c := cache.New("L3", m.L3.SizeBytes, m.L3.Ways, m.L3.MSHRs)
			for _, b := range st.l1Misses {
				c.WarmInsert(b, cache.Modified)
			}
		}), len(st.l1Misses))

		// memsys: one port of a fresh hierarchy per replay.
		load.add(timeBest(func() {
			p := memsys.New(m, 1).Port(0)
			for i, in := range st.mem {
				if in.Kind != trace.KindStore {
					sink += p.Load(in.Addr, in.PC, uint64(4*i)).Done
				}
			}
		}), loads)
		acquire.add(timeBest(func() {
			p := memsys.New(m, 1).Port(0)
			for i, in := range st.mem {
				if in.Kind == trace.KindStore {
					sink += p.StoreAcquire(in.Addr, in.PC, uint64(4*i)).Done
				}
			}
		}), stores)
		touch.add(timeBest(func() {
			p := memsys.New(m, 1).Port(0)
			for _, in := range st.mem {
				p.WarmTouch(in.Addr, uint64(in.Size), in.Kind == trace.KindStore)
			}
		}), len(st.mem))

		read.add(timeBest(func() {
			d := dram.New(m.DRAM.LatencyCyc, m.DRAM.CyclesPerBlock, m.DRAM.MaxOutstanding)
			for i := range st.l1Misses {
				sink += d.Read(uint64(40 * i))
			}
		}), len(st.l1Misses))

		pfObs.add(timeBest(func() {
			p := prefetch.New(pf)
			var out []mem.Block
			for i, in := range st.mem {
				out = p.Observe(prefetch.Event{PC: in.PC, Block: mem.BlockOf(in.Addr), Miss: st.l1Miss[i], Store: in.Kind == trace.KindStore}, out[:0])
				sink += uint64(len(out))
			}
		}), len(st.mem))

		xlate.add(timeBest(func() {
			t := tlb.New(tlb.TableI())
			for _, in := range st.mem {
				sink += t.Translate(in.Addr)
			}
		}), len(st.mem))
	}
	rep.set("trace.next_ns", next.ns())
	rep.set("trace.skip_ns", skip.ns())
	rep.set("storebuf.forward_ns", fwd.ns())
	rep.set("core.observe_ns", obs.ns())
	rep.set("cache.lookup_ns", lookup.ns())
	rep.set("cache.insert_l1_ns", insL1.ns())
	rep.set("cache.insert_llc_ns", insLLC.ns())
	rep.set("cache.warm_insert_ns", warmIns.ns())
	rep.set("memsys.load_ns", load.ns())
	rep.set("memsys.store_acquire_ns", acquire.ns())
	rep.set("memsys.warm_touch_ns", touch.ns())
	rep.set("dram.read_ns", read.ns())
	rep.set("prefetch.observe_ns", pfObs.ns())
	rep.set("tlb.translate_ns", xlate.ns())
	rep.infof("replayed %d instructions of each of %d workload streams through the layers (%v prefetcher)", replayInsts, len(streams), pf)
	return nil
}

func isProgram(r trace.Reader) bool {
	_, ok := r.(*trace.Program)
	return ok
}
