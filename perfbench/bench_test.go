package main

import (
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"

	"qma/internal/scenario"
)

// benchmarkFile mirrors BENCHMARK.json; decoding rejects unknown keys.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	f, err := os.Open("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileSchema checks BENCHMARK.json against the benchmark
// contract and against what the harness reports: the same workloads, the
// same metrics with the same units and directions, and every per-layer
// metric mapped to an existing end-to-end metric and workload.
func TestBenchmarkFileSchema(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d strings", len(b.Command))
	}
	for _, c := range b.Command {
		if len(c) > 200 || regexp.MustCompile(`^/|(^|/)\.\.(/|$)`).MatchString(c) {
			t.Errorf("command string %q", c)
		}
	}
	if len(b.Paths) == 0 || len(b.Paths) > 16 {
		t.Errorf("%d paths", len(b.Paths))
	}
	for _, p := range b.Paths {
		if !pathRE.MatchString(p) || regexp.MustCompile(`(^|/)\.\.(/|$)`).MatchString(p) {
			t.Errorf("path %q", p)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}

	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the charset", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}

	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, harness has %d", len(b.Workloads), len(workloads))
	}
	wlNames := map[string]bool{}
	for i, wl := range b.Workloads {
		checkName("workload", wl.Name)
		wlNames[wl.Name] = true
		if i < len(workloads) && workloads[i].name != wl.Name {
			t.Errorf("workload %d is %q, harness has %q", i, wl.Name, workloads[i].name)
		}
		if wl.Why == "" || len(wl.Why) > 200 || regexp.MustCompile(`\n`).MatchString(wl.Why) {
			t.Errorf("workload %q: why must be one line of at most 200 characters", wl.Name)
		}
	}

	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.EndToEnd) != len(endToEndDefs) {
		t.Errorf("%d end-to-end metrics, harness has %d", len(b.EndToEnd), len(endToEndDefs))
	}
	e2e := map[string]bool{}
	for i, m := range b.EndToEnd {
		checkName("end-to-end", m.Name)
		e2e[m.Name] = true
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if i < len(endToEndDefs) {
			d := endToEndDefs[i]
			if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("end-to-end %d is %+v, harness has %+v", i, m, d)
			}
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s: unit %q, better %q", m.Unit, m.Better)
			}
			for _, o := range b.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %g is below %s's %g", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}

	if len(b.PerLayer) < 1 || len(b.PerLayer) > 128 || len(b.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics, harness has %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		checkName("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if i < len(perLayer) {
			d := perLayer[i]
			if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("per-layer %d is %+v, harness has %s %s %s", i, m, d.Name, d.Unit, d.Better)
			}
		}
	}
	for _, d := range perLayer {
		if !e2e[d.Moves] {
			t.Errorf("%s moves %q, which is no end-to-end metric", d.Name, d.Moves)
		}
		if len(d.On) == 0 {
			t.Errorf("%s names no workload", d.Name)
		}
		for _, wl := range d.On {
			if !wlNames[wl] {
				t.Errorf("%s names workload %q, which BENCHMARK.json lacks", d.Name, wl)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at a tiny shape, untraced and
// traced, and checks that the checks pass and every metric is reported.
func TestWorkloadsSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep := measure(w, w.tiny, 3, time.Millisecond, false)
			if rep.failed != 0 || len(rep.problems) > 0 || rep.attempted < 1 {
				t.Fatalf("attempted %d, failed %d, problems %v", rep.attempted, rep.failed, rep.problems)
			}
			for _, d := range endToEndDefs {
				m, ok := rep.metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			rep = measure(w, w.tiny, 3, time.Millisecond, true)
			if rep.failed != 0 || len(rep.problems) > 0 {
				t.Fatalf("traced: failed %d, problems %v", rep.failed, rep.problems)
			}
			for _, d := range perLayer {
				if m, ok := rep.metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("traced: %s = %+v, want a value in %s", d.Name, m, d.Unit)
				}
			}
			if len(rep.metrics) != len(perLayer) {
				t.Errorf("traced: %d metrics, want %d", len(rep.metrics), len(perLayer))
			}
		})
	}
}

// TestCityWorkerCountInvariant pins that the city's simulated outputs do not
// depend on the number of workers the sharded scheduler uses.
func TestCityWorkerCountInvariant(t *testing.T) {
	w, _ := findWorkload("city")
	s := w.tiny
	s.Nodes, s.Cells = 1200, 3
	one := setupCity(5, s, scenario.QMA, 1).run(newTracer())
	all := setupCity(5, s, scenario.QMA, runtime.NumCPU()).run(newTracer())
	if one.events == 0 || one.events != all.events || one.pdr != all.pdr || one.delivered != all.delivered {
		t.Fatalf("1 worker: events %d PDR %g delivered %d; %d workers: events %d PDR %g delivered %d",
			one.events, one.pdr, one.delivered, runtime.NumCPU(), all.events, all.pdr, all.delivered)
	}
}

// TestTraceCoversProcessCPU checks that the per-layer self times of a
// traced run sum to at least 95% of the process CPU time they split.
func TestTraceCoversProcessCPU(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a few CPU seconds")
	}
	w, _ := findWorkload("city_csma")
	s := w.tiny
	s.Nodes, s.Cells, s.Seconds = 2000, 4, 20
	rep := measure(w, s, 7, time.Millisecond, true)
	if rep.failed != 0 {
		t.Fatalf("problems %v", rep.problems)
	}
	cov := rep.metrics["trace.coverage_frac"].Value
	var self float64
	for _, row := range layerRows {
		self += rep.metrics[row+".self_s"].Value
	}
	t.Logf("coverage %.3f over %.2f s of sampled CPU", cov, self)
	if cov < 0.95 || cov > 1.05 || self < 1 {
		t.Fatalf("coverage %.3f over %.2f s of sampled CPU, want within [0.95, 1.05] over at least 1 s", cov, self)
	}
}
