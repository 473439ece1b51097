package sim

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"predrm/internal/core"
	"predrm/internal/exact"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/trace"
)

// warmSolve is one exact solve as the warm-bound golden records it.
type warmSolve struct {
	Trace      int     `json:"trace"`
	NodeLimit  int     `json:"node_limit"`
	Nodes      int     `json:"nodes"`
	Truncated  bool    `json:"truncated,omitempty"`
	WarmSeeded bool    `json:"warm_seeded,omitempty"`
	WarmCuts   int     `json:"warm_cuts,omitempty"`
	Feasible   bool    `json:"feasible"`
	Energy     float64 `json:"energy,omitempty"`
	Mapping    []int   `json:"mapping"`
}

// statsSolver forwards to a warm-started exact solver and records every
// solve's statistics and decision.
type statsSolver struct {
	o     *exact.Optimal
	trace int
	log   *[]warmSolve
}

func (s statsSolver) Solve(p *sched.Problem) core.Decision {
	d := s.o.Solve(p)
	st := s.o.LastStats
	*s.log = append(*s.log, warmSolve{
		Trace: s.trace, NodeLimit: s.o.NodeLimit,
		Nodes: st.Nodes, Truncated: st.Truncated, WarmSeeded: st.WarmSeeded, WarmCuts: st.WarmCuts,
		Feasible: d.Feasible, Energy: d.Energy, Mapping: d.Mapping,
	})
	return d
}

// TestWarmStartBoundRecorded replays six generated traces (alternating LT
// and VT, oracle prediction) through sim.Run with exact.Optimal{WarmStart:
// true} at three node limits, and requires every solve's node count,
// truncation, warm seeding, warm cuts, mapping and energy to equal the
// recorded reference. The warm bound decides where a truncated search
// stops, so this pins the bound itself, not only completed decisions.
// The reference was recorded before the bound was rebuilt on the
// heuristic's pre-booked placement loop; do not regenerate it (go test
// -run WarmStartBoundRecorded -update-golden) to make a failure go away.
//
// Under -race only the 3000-node limit runs (the larger limits' truncated
// solves take minutes there); the plain test run covers all three.
func TestWarmStartBoundRecorded(t *testing.T) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(1).Split())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2026)
	var traces []*trace.Trace
	for k := 0; k < 6; k++ {
		tight := trace.LessTight
		if k%2 == 1 {
			tight = trace.VeryTight
		}
		tr, err := trace.Generate(set, trace.GenConfig{
			Length: 120, InterarrivalMean: 2, InterarrivalStd: 0.7, Tightness: tight,
		}, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}

	limits := []int{0, 3000, 30000}
	if raceEnabled {
		if *updateGolden {
			t.Fatal("-update-golden needs a build without -race here")
		}
		limits = limits[1:2]
	}
	var got []warmSolve
	for _, limit := range limits {
		for k, tr := range traces {
			oracle, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: uint64(k)})
			if err != nil {
				t.Fatal(err)
			}
			o := &exact.Optimal{NodeLimit: limit, WarmStart: true}
			cfg := Config{Platform: set.Platform, TaskSet: set, Predictor: oracle,
				Solver: statsSolver{o: o, trace: k, log: &got}}
			if _, err := Run(cfg, tr); err != nil {
				t.Fatalf("limit %d trace %d: %v", limit, k, err)
			}
		}
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	seeded, truncated := 0, 0
	for _, s := range got {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
		if s.WarmSeeded {
			seeded++
		}
		if s.Truncated {
			truncated++
		}
	}
	if seeded == 0 || truncated == 0 {
		t.Fatalf("fixture too easy: %d warm-seeded and %d truncated of %d solves", seeded, truncated, len(got))
	}
	t.Logf("%d solves, %d warm-seeded, %d truncated", len(got), seeded, truncated)

	golden := filepath.Join("testdata", "warmbound.golden.jsonl.gz")
	if *updateGolden {
		var z bytes.Buffer
		zw := gzip.NewWriter(&z)
		if _, err := zw.Write(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, z.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := bytes.Split(buf.Bytes(), []byte("\n"))
	var wantLines [][]byte
	for _, line := range bytes.Split(want, []byte("\n")) {
		var s warmSolve
		if len(line) > 0 && json.Unmarshal(line, &s) == nil && !slices.Contains(limits, s.NodeLimit) {
			continue
		}
		wantLines = append(wantLines, line)
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("solve %d diverged from %s:\n got  %s\n want %s", i, golden, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d solves, reference has %d", len(gotLines)-1, len(wantLines)-1)
	}
}
