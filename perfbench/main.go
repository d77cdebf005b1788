// Command perfbench is the repository's performance benchmark: it runs one
// named workload against the simulator (in process) or against a real spbd
// daemon (serve-mix), checks that every output is correct, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds this binary and spbd from the
// checkout first:
//
//	bash perfbench/run.sh --workload detail-sbbound --seed 1 --seconds 25 --trace 0
//
// See README.md for the workloads, the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// options is what every workload runner receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string // scratch space inside the checkout: profiles, spans, daemon state
	spbd    string // path of the spbd binary (serve-mix)
	workers int    // load concurrency: at most the CPUs this process may use
}

// report is one run's outcome. metrics carries the values the JSON line
// reports; figures the values of the figures list that the workload
// produces, with how each was taken; info the other human-readable lines.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	figures           map[string]figure
	info              []string
}

type figure struct {
	value float64
	note  string
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) setFigure(name string, v float64, note string) { r.figures[name] = figure{v, note} }

func (r *report) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := flag.Uint64("seed", 1, "input seed (the same seed gives the same inputs)")
	seconds := flag.Float64("seconds", 25, "how long the timed section measures")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spbd := flag.String("spbd", "", "path of the spbd binary (serve-mix)")
	workdir := flag.String("workdir", ".bench_build", "scratch directory for profiles, spans and daemon state")
	probe := flag.Bool("probe-setup", false, "set the workload up, print \"dispatch\" and exit (used to time set-up)")
	makeRef := flag.Bool("make-ref", false, "regenerate the sampled-warm full-detail reference for -seed into -ref-out")
	refOut := flag.String("ref-out", "perfbench/refs/sampled_warm.json", "reference file -make-ref updates")
	flag.Parse()

	if *makeRef {
		if err := writeSampledRef(*refOut, *seed); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloadByName(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q (want %s)", *workload, strings.Join(workloadNames(), "|")))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *probe {
		if err := run.probe(*seed); err != nil {
			fatal(err)
		}
		return
	}
	wd, err := filepath.Abs(*workdir)
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(wd, 0o755); err != nil {
		fatal(err)
	}
	opt := options{
		seed:    *seed,
		seconds: *seconds,
		trace:   *traceFlag == 1,
		workdir: wd,
		spbd:    *spbd,
		workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
	}
	rep := &report{metrics: map[string]float64{}, figures: map[string]figure{}}
	if err := run.run(opt, rep); err != nil {
		fatal(err)
	}
	if err := emit(os.Stdout, *workload, opt, rep); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the human-readable report and then the JSON result line. It
// refuses to print a result that misses a metric BENCHMARK.json declares.
func emit(w *os.File, workload string, opt options, rep *report) error {
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("internal error: %s did not report %s", workload, d.name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	mode := "untraced: end-to-end metrics"
	if opt.trace {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g workers=%d (%s)\n", workload, opt.seed, opt.seconds, opt.workers, mode)
	for _, l := range rep.info {
		fmt.Fprintln(w, "  "+l)
	}
	rep.setFigure("error_rate", float64(rep.failed)/float64(max(rep.attempted, 1)), fmt.Sprintf("%d failed of %d attempted", rep.failed, rep.attempted))
	fmt.Fprintln(w, "  figures (n/a: this workload or run does not produce it):")
	for _, d := range figureDefs {
		f, ok := rep.figures[d.name]
		if v, gated := rep.metrics[d.name]; gated {
			f, ok = figure{v, "gated, see below"}, true
		}
		if !ok {
			fmt.Fprintf(w, "    %-16s %14s\n", d.name, "n/a")
			continue
		}
		fmt.Fprintf(w, "    %-16s %14.6g %-8s (%s)\n", d.name, f.value, d.unit, f.note)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, rep.metrics[n], unitOf(n))
	}
	line, err := json.Marshal(map[string]any{
		"correct":   rep.failed == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
