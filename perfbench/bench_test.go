package main

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"spb/internal/figures"
	"spb/internal/sim"
)

// The benchmark's Fig. 5 grid and arithmetic must reproduce the paper
// figure exactly: at the default seed and the quick scale, its geomean
// table equals figures.Fig5 and its paper_err_pts equals the error the
// figures package's own verifier measures for the Fig. 5 claims.
func TestFig5MatchesFiguresHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the quick Fig. 5 grid")
	}
	specs := fig5Specs(1, figures.Quick.Insts)
	res, err := sim.NewRunner().GetAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fig5FromResults(specs, res)
	if err != nil {
		t.Fatal(err)
	}
	h := figures.NewHarness(figures.Quick)
	tabs, err := h.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != len(got) {
		t.Fatalf("figures.Fig5 has %d tables, the benchmark %d", len(tabs), len(got))
	}
	for si, tab := range tabs {
		if len(tab.Rows) != len(got[si]) {
			t.Fatalf("%s: %d rows, the benchmark has %d", tab.Title, len(tab.Rows), len(got[si]))
		}
		for pi, row := range tab.Rows {
			if want := row.Vals[1]; got[si][pi] != want { // the SB-BOUND column
				t.Errorf("%s %s: benchmark %v, figures %v", tab.Title, row.Name, got[si][pi], want)
			}
		}
	}

	pts, err := paperErrPts(got)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0.0, 0
	for _, v := range h.Verify() {
		if v.ID != "fig5" {
			continue
		}
		if v.Err != nil {
			t.Fatalf("%s: %v", v.Claim, v.Err)
		}
		d := v.Measured - v.Paper
		if d < 0 {
			d = -d
		}
		sum += d * 100
		n++
	}
	if want := sum / float64(n); pts != want {
		t.Errorf("paper_err_pts = %v, figures' verifier gives %v", pts, want)
	}
}

// The stored sampled-warm reference must cover every point of the grid for
// each of its seeds, at the grid's own instruction budget, so that
// sample_err_pct never compares against a stale or partial reference.
func TestSampledReferenceCoversGrid(t *testing.T) {
	ref, err := loadSampledRef()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.IPC) < 2 {
		t.Fatalf("reference holds %d seeds, want the default and a held-out seed", len(ref.IPC))
	}
	if _, ok := ref.IPC["1"]; !ok {
		t.Error("reference lacks the default seed 1")
	}
	for seed, ipcs := range ref.IPC {
		s, err := strconv.ParseUint(seed, 10, 64)
		if err != nil {
			t.Fatalf("seed key %q: %v", seed, err)
		}
		for _, spec := range sampledSpecs(s, sim.DefaultSampling) {
			if v, ok := ipcs[pointKey(spec)]; !ok || v <= 0 {
				t.Errorf("seed %s: no reference IPC for %s", seed, pointKey(spec))
			}
		}
	}
}

// BENCHMARK.json declares the metric and workload lists to the tools that
// run the benchmark;
// it must name exactly what the benchmark reports.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(bj.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(names))
	}
	for i, w := range bj.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, names[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
