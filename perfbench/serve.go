package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"spb/internal/client"
	"spb/internal/config"
	"spb/internal/core"
	"spb/internal/sim"
	"spb/internal/workloads"
)

// The serve-mix traffic: an open loop of POST /v1/runs?wait=1 against one
// spbd on loopback. Repeats come from a hot set the benchmark stored in the
// daemon's disk tier beforehand (the first request of each is a disk hit,
// later ones memory hits); the rest are new specs that simulate, journal
// and persist with fsync.
const (
	serveInsts = 60_000 // per spec: a new spec simulates in about 20 ms
	// serveFreshFrac is the share of requests that are new specs. At 5%,
	// two simulations seldom overlap at the headline rate, so its tail is
	// the simulated tier's own latency rather than a queue behind both
	// connections, which swings with the host's load.
	serveFreshFrac = 0.05
	serveLimitMS   = 250 // tail latency limit a rate must meet for serve_max_rps
	serveLagMS     = 50  // median generator lag over a step's last tenth that counts as a growing backlog
	serveTimeout   = 20 * time.Second
)

// serveSteps are the fixed offered rates and their shares of --seconds. At
// 25 s the headline step holds 1300 requests, so its tail is a p99, and
// its median is a memory hit that did not queue. The last steps offer more
// than nproc connections can carry on the reference host, so
// serve_max_rps falls inside the ladder instead of at its top.
var serveSteps = []struct {
	rate, share float64
}{{40, 0.15}, {80, 0.65}, {160, 0.08}, {320, 0.04}, {640, 0.04}, {1280, 0.04}}

const headlineStep = 1

// hotSpecs are the repeated specs of the mix.
func hotSpecs(seed uint64) []sim.RunSpec {
	var specs []sim.RunSpec
	for _, w := range workloads.SBBoundSPEC() {
		for _, sq := range []int{14, 56} {
			for _, p := range []core.Policy{core.PolicyAtCommit, core.PolicySPB} {
				specs = append(specs, sim.RunSpec{Workload: w.Name, Policy: p, SQSize: sq,
					Prefetcher: config.PrefetchStream, Cores: 1, Insts: serveInsts, Seed: seed})
			}
		}
	}
	return specs
}

// mix returns n requests drawn from the seed: a hot spec, or with
// probability serveFreshFrac a spec no earlier request used. *fresh numbers
// the new specs across calls.
func mix(rng *rand.Rand, hot []sim.RunSpec, n int, fresh *uint64, seed uint64) []sim.RunSpec {
	apps := workloads.SBBoundSPEC()
	out := make([]sim.RunSpec, n)
	for i := range out {
		if rng.Float64() >= serveFreshFrac {
			out[i] = hot[rng.Intn(len(hot))]
			continue
		}
		*fresh++
		s := hot[0]
		s.Workload = apps[rng.Intn(len(apps))].Name
		s.Policy = []core.Policy{core.PolicyAtCommit, core.PolicySPB}[rng.Intn(2)]
		s.SQSize = []int{14, 56}[rng.Intn(2)]
		s.Seed = seed + *fresh // hot specs use seed itself
		out[i] = s
	}
	return out
}

// daemon is one spbd child process.
type daemon struct {
	cmd   *exec.Cmd
	base  string
	debug string // pprof address when started with -debug-addr
	log   *os.File
}

// startDaemon spawns spbd with its shipped defaults plus a loopback
// address, the benchmark's cache directory and journal, and extra, and
// returns once GET /healthz answers, with the time that took.
func startDaemon(bin, dir string, extra ...string) (*daemon, time.Duration, error) {
	logf, err := os.OpenFile(filepath.Join(dir, "spbd.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-cache-dir", filepath.Join(dir, "cache"), "-journal", filepath.Join(dir, "journal")}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start spbd: %w", err)
	}
	d := &daemon{cmd: cmd, log: logf}
	line, err := bufio.NewReader(out).ReadString('\n')
	const prefix = "spbd: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		d.kill()
		return nil, 0, fmt.Errorf("spbd did not report its address (got %q): see %s", line, logf.Name())
	}
	go io.Copy(io.Discard, out) //nolint:errcheck // drains stdout until the child exits
	d.base = "http://" + strings.Fields(strings.TrimPrefix(line, prefix))[0]
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("spbd at %s never became healthy", d.base)
		}
		time.Sleep(200 * time.Microsecond)
	}
	ready := time.Since(start)
	if b, err := os.ReadFile(logf.Name()); err == nil {
		if i := bytes.LastIndex(b, []byte("pprof on http://")); i >= 0 {
			rest := string(b[i+len("pprof on http://"):])
			d.debug = rest[:strings.Index(rest, "/")]
		}
	}
	return d, ready, nil
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // the child may already have exited; Wait reports how
	_ = d.cmd.Wait()
	d.log.Close()
}

// stop drains the daemon with SIGTERM, waits for it to exit and returns its
// peak resident set size in MB.
func (d *daemon) stop() (float64, error) {
	defer d.log.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = d.cmd.Wait()
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return 0, fmt.Errorf("spbd exit: %w", err)
		}
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		return 0, fmt.Errorf("spbd did not drain within 60 s")
	}
	ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, fmt.Errorf("no resource usage for spbd")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// promScrape reads the unlabelled counters and the histogram sums of a
// /metrics page, plus the cache-hit tiers as spbd_cache_hits_total{tier}.
func promScrape(ctx context.Context, c *client.Client) (map[string]float64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// served is one request of the mix and what came back.
type served struct {
	spec  sim.RunSpec
	tier  string // "memory", "disk" or "simulated"
	id    string
	stats []byte
	sample
}

// runStep offers reqs at rate from conns workers and returns each outcome.
func runStep(ctx context.Context, c *client.Client, reqs []sim.RunSpec, rate float64, conns int, spans *spanLog, step string) []served {
	out := make([]served, len(reqs))
	samples := openLoop(ctx, time.Now().Add(5*time.Millisecond), fixedRate(rate, len(reqs)), conns, func(ctx context.Context, i int) error {
		rctx, cancel := context.WithTimeout(ctx, serveTimeout)
		defer cancel()
		t0 := time.Now()
		v, err := c.Run(rctx, reqs[i])
		if spans != nil {
			spans.add(span{Name: "POST /v1/runs?wait=1", Parent: step, Start: t0, End: time.Now(), Attr: specLabel(reqs[i]) + " " + v.ID})
		}
		out[i].spec, out[i].id, out[i].stats = reqs[i], v.ID, v.Stats
		out[i].tier = v.Cached
		if out[i].tier == "" {
			out[i].tier = "simulated"
		}
		return err
	})
	for i := range out {
		out[i].sample = samples[i]
	}
	return out
}

func latenciesMS(rs []served, keep func(served) bool) []float64 {
	var out []float64
	for _, r := range rs {
		if keep == nil || keep(r) {
			out = append(out, float64(r.latency())/float64(time.Millisecond))
		}
	}
	return out
}

func runServeMix(opt options, rep *report) error {
	if opt.spbd == "" {
		return fmt.Errorf("serve-mix needs -spbd, the daemon binary (run.sh builds it)")
	}
	dir, err := os.MkdirTemp(opt.workdir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	hot := hotSpecs(opt.seed)

	// Untimed: store the hot set in the disk tier through a real daemon.
	pre, _, err := startDaemon(opt.spbd, dir)
	if err != nil {
		return err
	}
	if _, err := client.New(pre.base).BatchResults(ctx, hot); err != nil {
		pre.kill()
		return fmt.Errorf("prefill: %w", err)
	}
	if _, err := pre.stop(); err != nil {
		return err
	}

	// Host-speed calibrations (see calib.go) around the set-up and every
	// rate step; their median scales the whole run's host times.
	var calib []float64
	var setup float64
	if !opt.trace {
		// Set-up: spawn until /healthz answers, over the filled cache
		// directory and the journal the prefill left.
		calib = append(calib, hostSlowdown(opt.workers))
		var times []float64
		for i := 0; i < setupRepeats; i++ {
			d, ready, err := startDaemon(opt.spbd, dir)
			if err != nil {
				return err
			}
			if _, err := d.stop(); err != nil {
				return err
			}
			times = append(times, ready.Seconds())
		}
		calib = append(calib, hostSlowdown(opt.workers))
		setup = median(times)
	}

	var extra []string
	if opt.trace {
		extra = []string{"-debug-addr", "127.0.0.1:0"}
	}
	d, _, err := startDaemon(opt.spbd, dir, extra...)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()
	c := client.NewWithOptions(d.base, client.Options{HTTPClient: loadClient(opt.workers)})
	rng := rand.New(rand.NewSource(int64(opt.seed)))
	var fresh uint64

	// before and after are the daemon's counters around the headline step
	// (untraced) or the traced half (traced). The daemon's simulation rate
	// is taken there: in the overloaded steps both connections simulate at
	// once and contend for the CPUs with the generator.
	var before, after map[string]float64
	var all []served
	var steps [][]served
	var spans *spanLog
	var overhead float64
	var profPath string
	if !opt.trace {
		for i, st := range serveSteps {
			n := int(st.rate * st.share * opt.seconds)
			if i == headlineStep {
				if before, err = promScrape(ctx, c); err != nil {
					return err
				}
			}
			rs := runStep(ctx, c, mix(rng, hot, n, &fresh, opt.seed), st.rate, opt.workers, nil, fmt.Sprintf("step-%d", i))
			if i == headlineStep {
				if after, err = promScrape(ctx, c); err != nil {
					return err
				}
			}
			calib = append(calib, hostSlowdown(opt.workers))
			steps = append(steps, rs)
			all = append(all, rs...)
		}
	} else {
		// The headline rate twice: untraced, then with the daemon's CPU
		// profile running and a span per request.
		st := serveSteps[headlineStep]
		n := int(st.rate * st.share * opt.seconds / 2)
		base := runStep(ctx, c, mix(rng, hot, n, &fresh, opt.seed), st.rate, opt.workers, nil, "untraced")
		if before, err = promScrape(ctx, c); err != nil {
			return err
		}
		spans = &spanLog{}
		profPath = filepath.Join(opt.workdir, fmt.Sprintf("cpu-serve-mix-seed%d.pprof", opt.seed))
		profDone := make(chan error, 1)
		go func() { profDone <- fetchProfile(d.debug, profPath, st.share*opt.seconds/2) }()
		traced := runStep(ctx, c, mix(rng, hot, n, &fresh, opt.seed), st.rate, opt.workers, spans, "traced")
		if err := <-profDone; err != nil {
			return err
		}
		b50, _ := percentile(latenciesMS(base, nil), 50)
		t50, _ := percentile(latenciesMS(traced, nil), 50)
		overhead = 100 * (t50/b50 - 1)
		steps = [][]served{base, traced}
		all = append(base, traced...)
		if after, err = promScrape(ctx, c); err != nil {
			return err
		}
	}
	var traces []traceSpans
	if opt.trace {
		var missing int
		var terr error
		traces, missing, terr = fetchTraces(ctx, c, all)
		if missing > 0 {
			rep.infof("%d job traces could not be read; first: %v", missing, terr)
		}
	}
	rss, err := d.stop()
	d = nil
	if err != nil {
		return err
	}

	// Untimed: every distinct spec of the mix once in process; the bytes
	// spbd returned must equal Result.StatsJSON of the same spec.
	var distinct []sim.RunSpec
	index := map[sim.RunSpec]int{}
	for _, r := range all {
		if _, ok := index[r.spec]; !ok {
			index[r.spec] = len(distinct)
			distinct = append(distinct, r.spec)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	check := runPass(ctx, distinct, lptOrder(distinct), opt.workers, nil, 0)
	runtime.ReadMemStats(&ms1)
	bad := 0
	for _, r := range all {
		rep.attempted++
		i := index[r.spec]
		var why string
		switch {
		case r.err != nil:
			why = r.err.Error()
		case check.errs[i] != nil:
			why = "in-process run: " + check.errs[i].Error()
		case !bytes.Equal(r.stats, check.stats[i]):
			why = "stats bytes differ from the in-process Result.StatsJSON"
			bad++
		}
		if why != "" {
			rep.failed++
			if rep.failed <= 5 {
				rep.infof("FAILED %s (%s): %s", specLabel(r.spec), r.tier, why)
			}
		}
	}
	tiers := map[string]int{}
	for _, r := range all {
		tiers[r.tier]++
	}
	rep.infof("requests: %d (memory %d, disk %d, simulated %d); distinct specs %d; byte mismatches %d",
		len(all), tiers["memory"], tiers["disk"], tiers["simulated"], len(distinct), bad)
	delta := func(name string) float64 { return after[name] - before[name] }
	runSec := delta("spbd_run_duration_seconds_sum")
	if runSec <= 0 {
		return fmt.Errorf("spbd reported no simulation time during the measured step")
	}
	mips := delta("spbd_sim_insts_total") / runSec / 1e6

	if !opt.trace {
		head := steps[headlineStep]
		lat := latenciesMS(head, nil)
		p50, _ := percentile(lat, 50)
		tail, tp := tailPercentile(lat)
		// One slowdown for the whole run: the serving path's latency is
		// also set by the loopback network, fsync and scheduling, so a
		// per-step calibration adds more noise than it removes.
		slow := median(calib)
		rep.set("setup_s", setup/slow)
		rep.set("sim_mips", mips*slow)
		rep.set("peak_rss_mb", rss)
		rep.set("spec_p50_ms", p50/slow)
		rep.set("spec_tail_ms", tail/slow)
		rep.infof("raw host times: setup_s %.6f, sim_mips %.4f MIPS, spec_p50_ms %.4f, spec_tail_ms %.4f (host slowdown vs reference %.3f, median of %d calibrations)",
			setup, mips, p50, tail, slow, len(calib))
		maxRate := 0.0
		for i, rs := range steps {
			l := latenciesMS(rs, nil)
			sp50, _ := percentile(l, 50)
			stail, stp := tailPercentile(l)
			var lags []float64
			for _, r := range rs[len(rs)*9/10:] {
				lags = append(lags, float64(r.lag())/float64(time.Millisecond))
			}
			lag, _ := percentile(lags, 50)
			errs := 0
			for _, r := range rs {
				if r.err != nil {
					errs++
				}
			}
			ok := stail <= serveLimitMS && lag <= serveLagMS && errs == 0
			if ok {
				maxRate = serveSteps[i].rate
			}
			rep.infof("rate %4.0f/s: %4d requests, p50 %.3f ms, p%.4g %.3f ms, end-of-step lag p50 %.3f ms, errors %d, meets limit %v",
				serveSteps[i].rate, len(rs), sp50, stp, stail, lag, errs, ok)
		}
		at := fmt.Sprintf("%d requests at %.0f/s, timed from each request's due time, raw", len(lat), serveSteps[headlineStep].rate)
		rep.setFigure("serve_p50_ms", p50, at)
		rep.setFigure("serve_p99_ms", tail, fmt.Sprintf("p%.4g of %s", tp, at))
		rep.setFigure("serve_max_rps", maxRate, fmt.Sprintf("highest step with tail <= %d ms, no growing backlog and no errors", serveLimitMS))
		return nil
	}

	traced := steps[1]
	rep.set("bench.trace_overhead_pct", overhead)
	if err := spans.write(filepath.Join(opt.workdir, fmt.Sprintf("spans-serve-mix-seed%d.jsonl", opt.seed))); err != nil {
		return err
	}
	if err := attributeProfile([]string{profPath}, rep); err != nil {
		return err
	}
	for _, tier := range []string{"memory", "disk", "simulated"} {
		l := latenciesMS(all, func(r served) bool { return r.tier == tier })
		p50, _ := percentile(l, 50)
		p99, _ := percentile(l, 99)
		rep.set("client."+tier+"_ms_p50", p50)
		rep.set("client."+tier+"_ms_p99", p99)
	}
	for _, phase := range []struct{ span, metric string }{{"queue-wait", "queue_wait"}, {"run", "run"}, {"store-write", "store_write"}} {
		var l []float64
		for _, t := range traces {
			if v, ok := t[phase.span]; ok {
				l = append(l, v)
			}
		}
		p50, _ := percentile(l, 50)
		p99, _ := percentile(l, 99)
		rep.set("server."+phase.metric+"_ms_p50", p50)
		rep.set("server."+phase.metric+"_ms_p99", p99)
	}
	hits := delta(`spbd_cache_hits_total{tier="memory"}`) + delta(`spbd_cache_hits_total{tier="disk"}`)
	if total := hits + delta("spbd_cache_misses_total"); total > 0 {
		rep.set("server.cache_hit_ratio", hits/total)
	} else {
		rep.set("server.cache_hit_ratio", 0)
	}
	rep.set("server.queue_rejected", delta("spbd_queue_rejected_total"))
	var lags []float64
	for _, r := range traced {
		lags = append(lags, float64(r.lag())/float64(time.Millisecond))
	}
	lag99, _ := percentile(lags, 99)
	rep.set("loadgen.lag_p99_ms", lag99)
	rep.infof("daemon simulation rate during the traced step: %.3f MIPS per worker-second", mips)
	rep.infof("%d job traces read from GET /v1/runs/{id}/trace", len(traces))

	// The simulator layers, for the mix's own specs as the byte check ran them.
	simCounts(distinct, check, rep)
	pl := durationsMS(check.lat)
	p50, _ := percentile(pl, 50)
	p90, _ := percentile(pl, 90)
	rep.set("sim.point_ms_p50", p50)
	rep.set("sim.point_ms_p90", p90)
	rep.set("go.alloc_mb_per_minst", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)/(float64(check.sim.InstsSimulated)/1e6))
	return replayLayers(hot, config.PrefetchStream, rep)
}

// fetchProfile stores a CPU profile of the daemon covering the next secs.
func fetchProfile(debugAddr, path string, secs float64) error {
	if debugAddr == "" {
		return fmt.Errorf("spbd did not report its pprof address")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", debugAddr, max(1, int(secs))))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pprof profile: %s", resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSpans maps a job's top-level phase names to their durations in ms.
type traceSpans map[string]float64

// fetchTraces reads the daemon's own per-job phase timeline for every
// request that reached a worker (the memory tier answers without one). It
// returns the timelines and how many could not be read.
func fetchTraces(ctx context.Context, c *client.Client, rs []served) ([]traceSpans, int, error) {
	var out []traceSpans
	var missing int
	var firstErr error
	seen := map[string]bool{}
	for _, r := range rs {
		if r.id == "" || r.tier == "memory" || seen[r.id] {
			continue
		}
		seen[r.id] = true
		tv, err := c.JobTrace(ctx, r.id)
		if err != nil {
			missing++
			if firstErr == nil {
				firstErr = fmt.Errorf("trace of job %s (%s): %w", r.id, r.tier, err)
			}
			continue
		}
		t := traceSpans{}
		for _, s := range tv.Spans {
			if !s.Nested() {
				t[s.Name] += float64(s.DurNS) / 1e6
			}
		}
		out = append(out, t)
	}
	return out, missing, firstErr
}

// zeroServeLayers reports the service-plane layers a simulator workload
// does not exercise.
func zeroServeLayers(rep *report) {
	for _, n := range []string{
		"client.memory_ms_p50", "client.memory_ms_p99", "client.disk_ms_p50", "client.disk_ms_p99",
		"client.simulated_ms_p50", "client.simulated_ms_p99",
		"server.queue_wait_ms_p50", "server.queue_wait_ms_p99", "server.run_ms_p50", "server.run_ms_p99",
		"server.store_write_ms_p50", "server.store_write_ms_p99", "server.cache_hit_ratio", "server.queue_rejected",
		"loadgen.lag_p99_ms",
	} {
		rep.set(n, 0)
	}
}
