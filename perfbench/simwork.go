package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/sim"
	"spb/internal/workloads"
)

// simGrid is an in-process simulator workload: a fixed grid of RunSpecs,
// built from the seed, simulated pass after pass on a fresh Runner (so no
// pass is answered from the memo cache) until the run's time is used.
type simGrid struct {
	name       string
	prefetcher config.PrefetcherKind
	specs      func(seed uint64) []sim.RunSpec
	// accuracy, if set, reports the workload's figure of merit against
	// its reference, from the first pass's results (in spec order).
	accuracy func(seed uint64, specs []sim.RunSpec, res []sim.Result, rep *report) error
}

// Instruction budgets, chosen on a 2-CPU host so that one pass takes a few
// seconds and a 25 s run holds several passes.
const (
	sbboundInsts  = 250_000 // per point, 96 points
	parsecInsts   = 40_000  // per core and point, 22 points of 8 cores
	sampledWarmup = 1_000_000
	sampledInsts  = 3_000_000 // per point after the warmup, 32 points
)

var sbSizes = config.StandardSQSizes // 56, 28, 14: the order of figures.Fig5's tables

// fig5Policies are the store-prefetch policies of the Fig. 5 grid, ideal
// last (the normalisation target).
var fig5Policies = []core.Policy{core.PolicyAtExecute, core.PolicyAtCommit, core.PolicySPB, core.PolicyIdeal}

var detailSBBound = simGrid{
	name:       "detail-sbbound",
	prefetcher: config.PrefetchStream,
	specs:      func(seed uint64) []sim.RunSpec { return fig5Specs(seed, sbboundInsts) },
	accuracy:   fig5Accuracy,
}

// fig5Specs is the paper's Fig. 5 grid over the SB-bound applications, in
// full detail on one core with the stream prefetcher.
func fig5Specs(seed, insts uint64) []sim.RunSpec {
	var specs []sim.RunSpec
	for _, w := range workloads.SBBoundSPEC() {
		for _, sq := range sbSizes {
			for _, p := range fig5Policies {
				specs = append(specs, sim.RunSpec{
					Workload: w.Name, Policy: p, SQSize: sq,
					Prefetcher: config.PrefetchStream, Cores: 1, Insts: insts, Seed: seed,
				})
			}
		}
	}
	return specs
}

var detailPARSEC8 = simGrid{
	name:       "detail-parsec8",
	prefetcher: config.PrefetchHybrid,
	specs: func(seed uint64) []sim.RunSpec {
		var specs []sim.RunSpec
		for _, w := range workloads.PARSEC() {
			for _, p := range []core.Policy{core.PolicyAtCommit, core.PolicySPB} {
				specs = append(specs, sim.RunSpec{
					Workload: w.Name, Policy: p, SQSize: 14,
					Prefetcher: config.PrefetchHybrid, Cores: 8, Insts: parsecInsts, Seed: seed,
				})
			}
		}
		return specs
	},
}

var sampledWarm = simGrid{
	name:       "sampled-warm",
	prefetcher: config.PrefetchStream,
	specs:      func(seed uint64) []sim.RunSpec { return sampledSpecs(seed, sim.DefaultSampling) },
	accuracy:   sampledAccuracy,
}

// sampledSpecs is the sampled-warm grid: every SB-bound application
// (fotonik3d and cam4 carry the known sampling bias) × {at-commit, spb} ×
// SB {14, 56}, behind one shared functional warmup per application.
func sampledSpecs(seed uint64, sampling sim.SamplingConfig) []sim.RunSpec {
	var specs []sim.RunSpec
	for _, w := range workloads.SBBoundSPEC() {
		for _, sq := range []int{14, 56} {
			for _, p := range []core.Policy{core.PolicyAtCommit, core.PolicySPB} {
				specs = append(specs, sim.RunSpec{
					Workload: w.Name, Policy: p, SQSize: sq,
					Prefetcher: config.PrefetchStream, Cores: 1,
					Insts: sampledInsts, WarmupInsts: sampledWarmup,
					Sampling: sampling, Seed: seed,
				})
			}
		}
	}
	return specs
}

func simWorkload(g simGrid) workloadDef {
	return workloadDef{
		name: g.name,
		run:  func(opt options, rep *report) error { return runSimGrid(g, opt, rep) },
		// The probe does what a run does before its first dispatch.
		probe: func(seed uint64) error {
			specs := g.specs(seed)
			_ = lptOrder(specs)
			_ = sim.NewRunner()
			if g.name == sampledWarm.name {
				if _, err := loadSampledRef(); err != nil {
					return err
				}
			}
			_, err := fmt.Println("dispatch")
			return err
		},
	}
}

// lptOrder returns spec indices longest-first by the runner's own cost
// model, so the last points of a pass do not leave a worker idle.
func lptOrder(specs []sim.RunSpec) []int {
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := specs[order[a]], specs[order[b]]
		return sa.CostEstimateAt(sa.WarmupInsts > 0) > sb.CostEstimateAt(sb.WarmupInsts > 0)
	})
	return order
}

// pass is one execution of the whole grid on a fresh Runner.
type pass struct {
	results []sim.Result
	stats   [][]byte        // canonical stats JSON per point
	lat     []time.Duration // Runner.GetCtx wall time per point
	errs    []error
	dur     time.Duration
	sim     sim.RunnerStats
	rssMB   float64 // peak resident set size during the pass
}

// runPass simulates every spec once with opt.workers concurrent callers of
// Runner.GetCtx, recording one span per call when spans is non-nil.
func runPass(ctx context.Context, specs []sim.RunSpec, order []int, workers int, spans *spanLog, passID int) pass {
	n := len(specs)
	p := pass{results: make([]sim.Result, n), stats: make([][]byte, n), lat: make([]time.Duration, n), errs: make([]error, n)}
	r := sim.NewRunner()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				i := order[k]
				t0 := time.Now()
				p.results[i], p.errs[i] = r.GetCtx(ctx, specs[i], nil)
				t1 := time.Now()
				p.lat[i] = t1.Sub(t0)
				if spans != nil {
					spans.add(span{Name: "Runner.GetCtx", Parent: fmt.Sprintf("pass-%d", passID), Start: t0, End: t1, Attr: specLabel(specs[i])})
				}
			}
		}()
	}
	wg.Wait()
	p.dur = time.Since(start)
	if spans != nil {
		spans.add(span{Name: fmt.Sprintf("pass-%d", passID), Start: start, End: start.Add(p.dur)})
	}
	p.sim = r.SimStats()
	for i := range specs {
		if p.errs[i] == nil {
			p.stats[i], p.errs[i] = p.results[i].StatsJSON()
		}
	}
	return p
}

func specLabel(s sim.RunSpec) string {
	return fmt.Sprintf("%s/%s/SB%d/%s/c%d/seed%d", s.Workload, s.Policy, s.SQSize, s.Prefetcher, s.Cores, s.Seed)
}

// checkPass counts the points of p that failed: an error, a result that
// did not cover its instruction budget, or stats that differ from the
// reference pass (nil for the first pass).
func checkPass(specs []sim.RunSpec, p pass, ref *pass, rep *report) {
	for i, s := range specs {
		rep.attempted++
		var why string
		switch {
		case p.errs[i] != nil:
			why = p.errs[i].Error()
		case coveredInsts(s, p.results[i]) != s.Insts*uint64(max(s.Cores, 1)):
			why = fmt.Sprintf("covered %d instructions, budget %d", coveredInsts(s, p.results[i]), s.Insts*uint64(max(s.Cores, 1)))
		case ref != nil && !bytes.Equal(p.stats[i], ref.stats[i]):
			why = "stats JSON differs from the first execution"
		}
		if why != "" {
			rep.failed++
			if rep.failed <= 5 {
				rep.infof("FAILED %s: %s", specLabel(s), why)
			}
		}
	}
}

// coveredInsts is the number of instructions a result accounts for after
// its warmup: every committed instruction in full detail, and the detailed
// plus fast-forwarded instructions of a sampled run.
func coveredInsts(s sim.RunSpec, r sim.Result) uint64 {
	if s.Sampling.IntervalInsts > 0 {
		return r.Sample.DetailedInsts + r.Sample.FastForwardInsts
	}
	return r.CPU.Committed
}

func runSimGrid(g simGrid, opt options, rep *report) error {
	ctx := context.Background()
	specs := g.specs(opt.seed)
	order := lptOrder(specs)
	deadline := time.Duration(opt.seconds * float64(time.Second))

	// Host-speed calibrations bracket every timed section (see calib.go).
	var calib []float64
	if !opt.trace {
		calib = append(calib, hostSlowdown(opt.workers))
		setup, err := timeSetupProbe(g.name, opt.seed)
		if err != nil {
			return err
		}
		calib = append(calib, hostSlowdown(opt.workers))
		rep.set("setup_s", setup/slowdownAround(calib[0], calib[1]))
		rep.infof("setup_s raw %.6f s", setup)
	}

	// Each pass starts with the peak-RSS mark reset and ends by returning
	// its garbage to the OS, so the next pass starts as a fresh sweep
	// process would and the calibration after it runs on an idle program.
	measured := func(id int) pass {
		resetPeakRSS()
		p := runPass(ctx, specs, order, opt.workers, nil, id)
		p.rssMB = peakRSSMB()
		debug.FreeOSMemory()
		if !opt.trace {
			calib = append(calib, hostSlowdown(opt.workers))
		}
		return p
	}
	debug.FreeOSMemory()
	// The first pass is the reference every later execution must match.
	first := measured(0)
	checkPass(specs, first, nil, rep)
	if g.accuracy != nil {
		if err := g.accuracy(opt.seed, specs, first.results, rep); err != nil {
			return err
		}
	}
	if opt.trace {
		return traceSimGrid(ctx, g, opt, specs, order, first, rep)
	}

	timed := []pass{first}
	for elapsed := first.dur; elapsed+timed[len(timed)-1].dur <= deadline; {
		p := measured(len(timed))
		checkPass(specs, p, &first, rep)
		timed = append(timed, p)
		elapsed += p.dur
	}
	// A spec's latency is its median over the passes, each call divided by
	// the host slowdown around its pass.
	var insts uint64
	var busy, rawBusy float64
	var rss []float64
	var durs []string
	perSpec := make([][]float64, len(specs))
	rawPerSpec := make([][]float64, len(specs))
	for i, p := range timed {
		slow := slowdownAround(calib[i+1], calib[i+2])
		insts += p.sim.InstsSimulated
		rawBusy += p.dur.Seconds()
		busy += p.dur.Seconds() / slow
		for k, l := range durationsMS(p.lat) {
			rawPerSpec[k] = append(rawPerSpec[k], l)
			perSpec[k] = append(perSpec[k], l/slow)
		}
		rss = append(rss, p.rssMB)
		durs = append(durs, fmt.Sprintf("%.2f s/%.0f MB/x%.2f", p.dur.Seconds(), p.rssMB, slow))
	}
	lats, rawLats := make([]float64, len(specs)), make([]float64, len(specs))
	for k := range specs {
		lats[k], rawLats[k] = median(perSpec[k]), median(rawPerSpec[k])
	}
	rep.infof("passes: %d of %d points each (time/peak RSS/host slowdown: %s), %d instructions covered", len(timed), len(specs), strings.Join(durs, ", "), insts)
	rep.set("sim_mips", float64(insts)/busy/1e6)
	rep.set("peak_rss_mb", median(rss))
	p50, _ := percentile(lats, 50)
	tail, tp := tailPercentile(lats)
	rep.set("spec_p50_ms", p50)
	rep.set("spec_tail_ms", tail)
	rawP50, _ := percentile(rawLats, 50)
	rawTail, _ := tailPercentile(rawLats)
	rep.infof("raw host times: sim_mips %.4f MIPS, spec_p50_ms %.4f, spec_tail_ms %.4f (host slowdown vs reference, median %.3f)",
		float64(insts)/rawBusy/1e6, rawP50, rawTail, median(calib))
	rep.infof("spec latency = one Runner.GetCtx call, median over %d passes; tail = p%.4g over %d specs", len(timed), tp, len(lats))
	return nil
}

// traceSimGrid is the traced run of a simulator workload: traced passes
// (CPU profile on, one span per Runner.GetCtx) alternate with untraced
// ones, which give the tracing overhead, for as long as the run's time
// allows; then the layers are replayed one by one.
func traceSimGrid(ctx context.Context, g simGrid, opt options, specs []sim.RunSpec, order []int, first pass, rep *report) error {
	deadline := time.Duration(opt.seconds * float64(time.Second))
	spans := &spanLog{}
	var traced, plain []pass
	var profiles []string
	var allocs uint64
	tracedPass := func() (pass, error) {
		path := filepath.Join(opt.workdir, fmt.Sprintf("cpu-%s-seed%d-%d.pprof", g.name, opt.seed, len(traced)))
		f, err := os.Create(path)
		if err != nil {
			return pass{}, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return pass{}, err
		}
		t := runPass(ctx, specs, order, opt.workers, spans, 2*len(traced)+1)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		allocs += ms1.TotalAlloc - ms0.TotalAlloc
		profiles = append(profiles, path)
		debug.FreeOSMemory()
		return t, f.Close()
	}
	plainPass := func() pass {
		u := runPass(ctx, specs, order, opt.workers, nil, 2*len(traced)+2)
		debug.FreeOSMemory()
		return u
	}
	// Pairs alternate which half runs first, so neither is favoured.
	for elapsed := first.dur; len(traced) == 0 || elapsed+2*first.dur <= deadline; {
		var t, u pass
		var err error
		if len(traced)%2 == 0 {
			t, err = tracedPass()
			u = plainPass()
		} else {
			u = plainPass()
			t, err = tracedPass()
		}
		if err != nil {
			return err
		}
		checkPass(specs, t, &first, rep)
		checkPass(specs, u, &first, rep)
		traced, plain = append(traced, t), append(plain, u)
		elapsed += t.dur + u.dur
	}
	var tracedDur, plainDur time.Duration
	var insts uint64
	for i := range traced {
		tracedDur += traced[i].dur
		plainDur += plain[i].dur
		insts += traced[i].sim.InstsSimulated
	}
	rep.infof("%d traced and %d untraced passes of %d points each", len(traced), len(plain), len(specs))
	rep.set("bench.trace_overhead_pct", 100*(tracedDur.Seconds()/plainDur.Seconds()-1))
	rep.set("go.alloc_mb_per_minst", float64(allocs)/(1<<20)/(float64(insts)/1e6))
	if err := spans.write(filepath.Join(opt.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", g.name, opt.seed))); err != nil {
		return err
	}
	if err := attributeProfile(profiles, rep); err != nil {
		return err
	}
	simCounts(specs, traced[0], rep)
	point := durationsMS(traced[0].lat)
	p50, _ := percentile(point, 50)
	p90, _ := percentile(point, 90)
	rep.set("sim.point_ms_p50", p50)
	rep.set("sim.point_ms_p90", p90)
	if err := replayLayers(specs, g.prefetcher, rep); err != nil {
		return err
	}
	zeroServeLayers(rep)
	return nil
}

// simCounts reports the simulated counters of one pass (they repeat
// exactly for a seed) and the host time per simulated cycle.
func simCounts(specs []sim.RunSpec, p pass, rep *report) {
	// A multi-core result sums its counters over the cores but reports the
	// slowest core's cycles, so the per-core ratios divide by core-cycles.
	var cycles, coreCycles, committed, sbStall, bursts, spfOK, spfIssued, l1Miss, l1Acc, inval, dramReads, gpfUsed, gpfIssued uint64
	for i, r := range p.results {
		cycles += r.CPU.Cycles
		coreCycles += r.CPU.Cycles * uint64(max(specs[i].Cores, 1))
		committed += r.CPU.Committed
		sbStall += r.CPU.SBStallCycles
		bursts += r.CPU.SPBBursts
		spfOK += r.Mem.SPFSuccessful
		spfIssued += r.Mem.SPFIssued
		l1Miss += r.Mem.L1Misses
		l1Acc += r.Mem.L1Hits + r.Mem.L1Misses
		inval += r.Mem.Invalidations
		dramReads += r.Mem.DRAMReads
		gpfUsed += r.Mem.GPFUsed
		gpfIssued += r.Mem.GPFIssued
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	var busy time.Duration
	for _, l := range p.lat {
		busy += l
	}
	rep.set("sim.ns_per_cycle", ratio(uint64(busy), cycles))
	rep.set("cpu.ipc", ratio(committed, coreCycles))
	rep.set("cpu.sb_stall_frac", ratio(sbStall, coreCycles))
	rep.set("core.bursts", float64(bursts))
	rep.set("core.spf_accuracy", ratio(spfOK, spfIssued))
	rep.set("cache.l1_miss_rate", ratio(l1Miss, l1Acc))
	rep.set("memsys.invalidations_per_kinst", 1000*ratio(inval, committed))
	rep.set("dram.reads_per_kinst", 1000*ratio(dramReads, committed))
	rep.set("prefetch.gpf_accuracy", ratio(gpfUsed, gpfIssued))
	rep.set("sim.warm_forks", float64(p.sim.WarmForks))
	rep.set("sim.sample_intervals", float64(p.sim.SampleIntervals))
	rep.set("sim.skipped_frac", ratio(p.sim.SampleInstsSkipped, p.sim.InstsSimulated))
}

// resetPeakRSS restarts this process's peak-RSS mark (VmHWM), so the next
// peakRSSMB covers only what ran since. Without /proc it is a no-op and
// the peak covers the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is this process's peak resident set size since resetPeakRSS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
