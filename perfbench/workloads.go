package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// workloadDef is one named workload: run measures it, probe performs only
// its set-up (in a child process whose spawn-to-dispatch time is setup_s).
type workloadDef struct {
	name  string
	run   func(options, *report) error
	probe func(seed uint64) error
}

// benchWorkloads lists the benchmark's workloads; README.md gives the reason
// for each.
var benchWorkloads = []workloadDef{
	simWorkload(detailSBBound),
	simWorkload(detailPARSEC8),
	simWorkload(sampledWarm),
	{name: "serve-mix", run: runServeMix, probe: func(uint64) error { return fmt.Errorf("serve-mix set-up is timed on spbd itself") }},
}

func workloadNames() []string {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 11

// timeSetupProbe spawns this binary in -probe-setup mode setupRepeats times
// and returns the median time from spawn until the child reports that it
// would dispatch its first point: process start, package initialisation
// and the workload's own set-up.
func timeSetupProbe(workload string, seed uint64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "-probe-setup", "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		cmd.Stderr = os.Stderr
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		elapsed := time.Since(start)
		werr := cmd.Wait()
		if rerr != nil || line != "dispatch\n" {
			return 0, fmt.Errorf("setup probe: got %q (%v, exit %v)", line, rerr, werr)
		}
		if werr != nil {
			return 0, fmt.Errorf("setup probe: %w", werr)
		}
		times = append(times, elapsed.Seconds())
	}
	return median(times), nil
}

// median of a non-empty sample (the mean of the middle pair when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
