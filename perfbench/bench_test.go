package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"predrm/internal/trace"
)

// small returns a copy of the named sim workload with fewer, shorter
// generated traces (the fixture workload is kept as is).
func small(t *testing.T, name string) *simWorkload {
	t.Helper()
	for _, w := range simWorkloads {
		if w.name != name {
			continue
		}
		c := *w
		switch name {
		case "vt-heuristic":
			c.load = generated(trace.VeryTight, 2, 120, false)
		case "lt-exact":
			c.load = generated(trace.LessTight, 1, 40, false)
		}
		return &c
	}
	t.Fatalf("no workload %q", name)
	return nil
}

func testOptions() options { return options{seed: 3, root: ".."} }

// TestDecoratorsNeutral runs each sim workload traced and checks that
// every traced Result equals the simulator's undecorated one, and that
// the solver's counters reached the traced registry through the
// decorator.
func TestDecoratorsNeutral(t *testing.T) {
	for _, name := range []string{"vt-heuristic", "lt-exact", "scale-64c8g"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			in, err := w.load(testOptions())
			if err != nil {
				t.Fatal(err)
			}
			log := newSpanLog()
			ph, err := w.phase(in, 0, true, 0, log)
			if err != nil {
				t.Fatal(err)
			}
			if ph.failed != 0 {
				t.Fatalf("%d requests failed", ph.failed)
			}
			mismatched, err := w.check(in, ph)
			if err != nil {
				t.Fatal(err)
			}
			if mismatched != 0 {
				t.Fatalf("%d traced requests differ from sim's result", mismatched)
			}
			for _, run := range ph.runs {
				if err := registryCheck(run.telemetry, w.counters); err != nil {
					t.Fatal(err)
				}
			}
			if log.solves == 0 || log.calls == 0 {
				t.Fatalf("decorators recorded %d solves over %d calls", log.solves, log.calls)
			}
		})
	}
}

// TestReplayAgreesWithSolver checks FeasibleMapping against every solver
// verdict captured in traced runs of the heuristic and the exact solver.
func TestReplayAgreesWithSolver(t *testing.T) {
	for _, name := range []string{"vt-heuristic", "lt-exact"} {
		t.Run(name, func(t *testing.T) {
			w := small(t, name)
			in, err := w.load(testOptions())
			if err != nil {
				t.Fatal(err)
			}
			log := newSpanLog()
			if _, err := w.phase(in, 0, true, 0, log); err != nil {
				t.Fatal(err)
			}
			res := replayCaptured(log.captures, 0)
			if res.checked == 0 || res.scheduleUS <= 0 || res.resourceNS <= 0 {
				t.Fatalf("replay measured nothing: %+v", res)
			}
			if res.mismatches != 0 {
				t.Fatalf("%d of %d verdicts disagree with FeasibleMapping", res.mismatches, res.checked)
			}
		})
	}
}

// TestServeOpenChecks drives a short low-rate phase against the server
// and expects every request decided, checked and traced.
func TestServeOpenChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live server for half a second")
	}
	o := testOptions()
	o.seconds = 1
	in, err := serveOpen{}.load(o)
	if err != nil {
		t.Fatal(err)
	}
	log := newSpanLog()
	ld, err := in.phase(1000, 0.5, log)
	if err != nil {
		t.Fatal(err)
	}
	if ld.failed != 0 || ld.decided != ld.n {
		t.Fatalf("%d of %d requests failed, %d decided", ld.failed, ld.n, ld.decided)
	}
	if err := registryCheck(ld.result.Telemetry, "core.cache."); err != nil {
		t.Fatal(err)
	}
	if log.typeScored == 0 || len(log.reqSolvePredict) == 0 {
		t.Fatal("predictor or solver decorator saw no calls")
	}
}

// TestPlainRunReportsEveryMetric checks a short plain run prints the
// whole end-to-end catalogue with non-zero values.
func TestPlainRunReportsEveryMetric(t *testing.T) {
	w := small(t, "vt-heuristic")
	o := testOptions()
	o.seconds = 0.2
	rep, err := w.run(o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rep.result(false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%d of %d failed", res.Failed, res.Attempted)
	}
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m.Value)
		}
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
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

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}
