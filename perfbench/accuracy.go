package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"spb/internal/core"
	"spb/internal/figures"
	"spb/internal/sim"
	"spb/internal/workloads"
)

// fig5Table is the benchmark's own Fig. 5 table: for each SB size (in
// sbSizes order) and each compared policy (fig5Policies without ideal), the
// geomean over the SB-bound applications of idealCycles/policyCycles.
type fig5Table [][]float64

// fig5FromResults computes the table from a grid laid out by fig5Specs.
// The arithmetic (per-application ratio, then exp of the mean log, in
// workload order) is figures.Fig5's, so the two agree bit for bit.
func fig5FromResults(specs []sim.RunSpec, res []sim.Result) (fig5Table, error) {
	cycles := map[string]uint64{}
	for i, s := range specs {
		cycles[fmt.Sprintf("%s/%s/%d", s.Workload, s.Policy, s.SQSize)] = res[i].CPU.Cycles
	}
	get := func(w string, p core.Policy, sq int) (float64, error) {
		c, ok := cycles[fmt.Sprintf("%s/%s/%d", w, p, sq)]
		if !ok || c == 0 {
			return 0, fmt.Errorf("fig5 grid lacks %s %s SB%d", w, p, sq)
		}
		return float64(c), nil
	}
	compared := fig5Policies[:len(fig5Policies)-1]
	t := make(fig5Table, len(sbSizes))
	for si, sq := range sbSizes {
		for _, p := range compared {
			sum, n := 0.0, 0
			for _, w := range workloads.SBBoundSPEC() {
				ideal, err := get(w.Name, core.PolicyIdeal, sq)
				if err != nil {
					return nil, err
				}
				pol, err := get(w.Name, p, sq)
				if err != nil {
					return nil, err
				}
				sum += math.Log(ideal / pol)
				n++
			}
			t[si] = append(t[si], math.Exp(sum/float64(n)))
		}
	}
	return t, nil
}

var claimRE = regexp.MustCompile(`^(\S+) at SB(\d+) \(SB-bound, vs ideal\)$`)

// paperErrPts is the mean over the Fig. 5 claims of figures.Expectations()
// of |measured − paper| × 100, reading each claim's cell from t.
func paperErrPts(t fig5Table) (float64, error) {
	compared := fig5Policies[:len(fig5Policies)-1]
	sum, n := 0.0, 0
	for _, e := range figures.Expectations() {
		if e.ID != "fig5" {
			continue
		}
		m := claimRE.FindStringSubmatch(e.Claim)
		if m == nil {
			return 0, fmt.Errorf("unrecognised Fig. 5 claim %q", e.Claim)
		}
		sq, _ := strconv.Atoi(m[2])
		si, pi := -1, -1
		for i, s := range sbSizes {
			if s == sq {
				si = i
			}
		}
		for i, p := range compared {
			if strings.EqualFold(p.String(), m[1]) {
				pi = i
			}
		}
		if si < 0 || pi < 0 {
			return 0, fmt.Errorf("Fig. 5 claim %q is outside the benchmark's grid", e.Claim)
		}
		sum += math.Abs(t[si][pi]-e.Paper) * 100
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("figures.Expectations() has no Fig. 5 claims")
	}
	return sum / float64(n), nil
}

func fig5Accuracy(_ uint64, specs []sim.RunSpec, res []sim.Result, rep *report) error {
	t, err := fig5FromResults(specs, res)
	if err != nil {
		return err
	}
	pts, err := paperErrPts(t)
	if err != nil {
		return err
	}
	compared := fig5Policies[:len(fig5Policies)-1]
	for si, sq := range sbSizes {
		row := fmt.Sprintf("fig5 SB%-2d geomean ideal/policy:", sq)
		for pi, p := range compared {
			row += fmt.Sprintf(" %s=%.4f", p, t[si][pi])
		}
		rep.infof("%s", row)
	}
	rep.setFigure("paper_err_pts", pts, "mean |measured - paper| x 100 over the four Fig. 5 claims")
	return nil
}

// sampledRef is the full-detail reference for sampled-warm: the IPC of
// every point simulated without sampling, behind the same warmup.
type sampledRef struct {
	Command string                        `json:"command"`
	Insts   uint64                        `json:"insts"`
	Warmup  uint64                        `json:"warmup"`
	IPC     map[string]map[string]float64 `json:"ipc"` // seed -> point -> IPC
}

//go:embed refs/sampled_warm.json
var sampledRefJSON []byte

func loadSampledRef() (sampledRef, error) {
	var ref sampledRef
	if err := json.Unmarshal(sampledRefJSON, &ref); err != nil {
		return ref, fmt.Errorf("sampled-warm reference: %w", err)
	}
	if ref.Insts != sampledInsts || ref.Warmup != sampledWarmup {
		return ref, fmt.Errorf("sampled-warm reference was made for %d+%d instructions, the grid runs %d+%d: regenerate it (%s)",
			ref.Warmup, ref.Insts, sampledWarmup, sampledInsts, ref.Command)
	}
	return ref, nil
}

func pointKey(s sim.RunSpec) string { return fmt.Sprintf("%s/%s/SB%d", s.Workload, s.Policy, s.SQSize) }

// sampledAccuracy reports the sampled engine's worst IPC error against
// the stored full-detail reference (when the seed has one) and its mean
// 95% confidence half-width.
func sampledAccuracy(seed uint64, specs []sim.RunSpec, res []sim.Result, rep *report) error {
	ref, err := loadSampledRef()
	if err != nil {
		return err
	}
	var ci float64
	for _, r := range res {
		ci += 100 * float64(r.Sample.IPCCI95PPM) / float64(r.Sample.IPCMeanPPM)
	}
	rep.setFigure("sample_ci_pct", ci/float64(len(res)), fmt.Sprintf("mean 95%% half-width of IPC over %d points", len(res)))
	ipcs, ok := ref.IPC[strconv.FormatUint(seed, 10)]
	if !ok {
		rep.infof("sample_err_pct: no full-detail reference for seed %d; references exist for seeds %s", seed, refSeeds(ref))
		return nil
	}
	worst, worstAt := 0.0, ""
	for i, s := range specs {
		want, ok := ipcs[pointKey(s)]
		if !ok {
			return fmt.Errorf("sampled-warm reference lacks %s for seed %d", pointKey(s), seed)
		}
		got := float64(res[i].Sample.IPCMeanPPM) / 1e6
		if e := 100 * math.Abs(got-want) / want; e > worst {
			worst, worstAt = e, pointKey(s)
		}
	}
	rep.setFigure("sample_err_pct", worst, "worst |sampled - full-detail| IPC error, at "+worstAt)
	return nil
}

func refSeeds(ref sampledRef) string {
	var s []string
	for k := range ref.IPC {
		s = append(s, k)
	}
	sort.Strings(s)
	return strings.Join(s, ", ")
}

// writeSampledRef simulates the sampled-warm grid for seed in full detail
// (no sampling, same warmup) and stores its IPCs in the reference file,
// keeping the other seeds' entries.
func writeSampledRef(path string, seed uint64) error {
	ref := sampledRef{IPC: map[string]map[string]float64{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &ref); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if ref.Insts != sampledInsts || ref.Warmup != sampledWarmup {
			ref.IPC = map[string]map[string]float64{}
		}
	}
	ref.Command = "bash perfbench/run.sh -make-ref -seed N"
	ref.Insts, ref.Warmup = sampledInsts, sampledWarmup
	specs := sampledSpecs(seed, sim.SamplingConfig{})
	res, err := sim.NewRunner().GetAll(specs)
	if err != nil {
		return err
	}
	ipcs := map[string]float64{}
	for i, s := range specs {
		if res[i].CPU.Committed != s.Insts {
			return fmt.Errorf("%s committed %d of %d instructions", pointKey(s), res[i].CPU.Committed, s.Insts)
		}
		ipcs[pointKey(s)] = res[i].IPC()
	}
	ref.IPC[strconv.FormatUint(seed, 10)] = ipcs
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
