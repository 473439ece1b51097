package rmconf

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"predrm/internal/core"
	"predrm/internal/exact"
	"predrm/internal/rng"
)

func TestParseBudget(t *testing.T) {
	for _, c := range []struct {
		in   string
		want core.Budget
		bad  bool
	}{
		{in: ""},
		{in: "20000", want: core.Budget{Nodes: 20000}},
		{in: "5ms", want: core.Budget{Wall: 5 * time.Millisecond}},
		{in: "0", bad: true},
		{in: "-3", bad: true},
		{in: "0s", bad: true},
		{in: "abc", bad: true},
	} {
		got, err := ParseBudget(c.in)
		if (err != nil) != c.bad || got != c.want {
			t.Errorf("ParseBudget(%q) = %+v, %v; want %+v, error %v", c.in, got, err, c.want, c.bad)
		}
	}
}

func TestNewSolver(t *testing.T) {
	for _, warm := range []bool{true, false} {
		for _, name := range []string{"heuristic", "greedy"} {
			s, err := NewSolver(name, warm, 0)
			if err != nil {
				t.Fatal(err)
			}
			h := s.(*core.Heuristic)
			if h.Greedy != (name == "greedy") || (h.Cache != nil) != warm {
				t.Errorf("%s warm=%v: got %+v", name, warm, h)
			}
		}
		s, err := NewSolver("milp", warm, 77)
		if err != nil {
			t.Fatal(err)
		}
		if o := s.(*exact.Optimal); o.NodeLimit != 77 || o.WarmStart != warm {
			t.Errorf("milp warm=%v: got NodeLimit %d WarmStart %v", warm, o.NodeLimit, o.WarmStart)
		}
	}
	if _, err := NewSolver("foo", true, 0); err == nil || !strings.Contains(err.Error(), `"foo"`) {
		t.Errorf("unknown engine: err %v", err)
	}
}

func TestEngineConfigChainsUnderBudget(t *testing.T) {
	f := Flags{Engine: "milp", SolverBudget: "5000", Seed: 1, Types: 10, Shards: 2}
	set, err := f.TaskSet(rng.New(f.Seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg, newSolver, err := f.EngineConfig(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Solver != nil || cfg.TaskSet != set || cfg.Platform != set.Platform {
		t.Fatalf("-shards 2 config: %+v", cfg)
	}
	b, ok := newSolver().(*core.BudgetedSolver)
	if !ok || len(b.Stages) != 2 || b.Stages[0].Name != "milp" || b.Stages[1].Name != "heuristic" || b.Budget.Nodes != 5000 {
		t.Fatalf("got %+v, want the milp→heuristic chain with a 5000-node budget", newSolver())
	}
	if newSolver() == newSolver() {
		t.Error("the factory returned a shared solver")
	}
	f.Shards = 1
	if cfg, _, _ = f.EngineConfig(set, nil); cfg.Solver == nil {
		t.Error("one shard: no solver in the config")
	}
	for _, bad := range []Flags{{Engine: "foo"}, {Engine: "heuristic", SolverBudget: "abc"}} {
		if _, _, err := bad.EngineConfig(set, nil); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

// command declares the flags of a command like rmsim (all=true) or
// rmserve, parses args, and returns Parse's error.
func command(all bool, args string) error {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var f Flags
	f.Register(fs, "engine", "warmstart", "solver-budget", "taskset", "platform", "seed", "types",
		"shards", "work-conserving", "trace-out", "provenance")
	if all {
		f.Register(fs, "metrics-out", "ops-addr", "ops-linger", "cpuprofile", "memprofile")
		fs.Bool("predict", false, "")
		fs.Float64("accuracy", 1, "")
		fs.Float64("time-error", 0, "")
		fs.Float64("batch-window", 0, "")
		fs.String("fault-plan", "", "")
	} else {
		fs.Float64("speed", 1, "")
	}
	return Parse(fs, strings.Fields(args))
}

func TestParseRefusals(t *testing.T) {
	for _, c := range []struct {
		all  bool
		args string
		bad  string // substring of the error; "" means accepted
	}{
		{true, "", ""},
		{true, "-shards 2 -predict", "-predict"},
		{true, "-shards 2 -trace-out x", "-trace-out"},
		{true, "-shards 2 -ops-addr :0", "-ops-addr"},
		{true, "-shards 2 -fault-plan seed=1", "-fault-plan"},
		{true, "-shards 2 -provenance", "-provenance"},
		{true, "-shards 2 -predict=false", ""},
		{true, "-shards 0", "-shards"},
		{true, "-accuracy 0.5", "-accuracy"},
		{true, "-predict -accuracy 0.5", ""},
		{true, "-predict -accuracy 1.5", "-accuracy"},
		{true, "-time-error 0.1", "-time-error"},
		{true, "-ops-linger 1s", "-ops-linger"},
		{true, "-ops-addr :0 -ops-linger 1s", ""},
		{true, "-provenance", "-provenance"},
		{true, "-provenance=false", ""},
		{true, "-provenance -trace-out x", ""},
		{true, "-provenance -ops-addr :0", ""},
		{true, "-batch-window -1", "-batch-window"},
		{true, "-batch-window NaN", "-batch-window"},
		{true, "-batch-window Inf", "-batch-window"},
		{true, "-predict -time-error NaN", "-time-error"},
		{true, "-types 0", "-types"},
		{true, "-bogus", "bogus"},
		// rmserve serves its plane on -addr, so -provenance needs no
		// -ops-addr; its trace stays refused at -shards > 1.
		{false, "-provenance", ""},
		{false, "-shards 2 -provenance", "-provenance"},
		{false, "-shards 2 -trace-out x", "-trace-out"},
		{false, "-speed NaN", "-speed"},
		{false, "-speed 0", "-speed"},
	} {
		err := command(c.all, c.args)
		if c.bad == "" && err != nil || c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)) {
			t.Errorf("%q (all flags %v): err %v, want one naming %q", c.args, c.all, err, c.bad)
		}
	}
}

func TestExit(t *testing.T) {
	var stderr strings.Builder
	if code := Exit("cmd", &stderr, nil); code != 0 {
		t.Errorf("nil error: exit %d", code)
	}
	if code := Exit("cmd", &stderr, parseError{flag.ErrHelp}); code != 0 {
		t.Errorf("-h: exit %d", code)
	}
	if code := Exit("cmd", &stderr, command(true, "-bogus")); code != 2 {
		t.Errorf("unknown flag: exit %d", code)
	}
	if stderr.Len() != 0 {
		t.Errorf("Exit printed %q for errors fs reports itself", stderr.String())
	}
	if code := Exit("cmd", &stderr, command(true, "-accuracy 0.5")); code != 1 || !strings.HasPrefix(stderr.String(), "cmd: -accuracy") {
		t.Errorf("refusal: exit %d, stderr %q", code, stderr.String())
	}
}

// TestTaskSetConsumesOneSplit: the stream drawn after TaskSet is the same
// whether the set was loaded or generated, so a trace generated from it
// does not depend on where the set came from.
func TestTaskSetConsumesOneSplit(t *testing.T) {
	gen := Flags{Seed: 9, Types: 20}
	root := rng.New(gen.Seed)
	set, err := gen.TaskSet(root)
	if err != nil {
		t.Fatal(err)
	}
	want := root.Uint64()

	path := t.TempDir() + "/taskset.json"
	if err := set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	load := Flags{Seed: 9, TaskSetFile: path}
	root = rng.New(load.Seed)
	loaded, err := load.TaskSet(root)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Uint64(); got != want || loaded.Len() != set.Len() {
		t.Errorf("after loading: next draw %d (want %d), %d types (want %d)", got, want, loaded.Len(), set.Len())
	}
	load.Platform = "8c1g"
	if _, err := load.TaskSet(rng.New(1)); err == nil || !strings.Contains(err.Error(), "-platform") {
		t.Errorf("-platform with -taskset: err %v", err)
	}
}
