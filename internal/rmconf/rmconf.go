// Package rmconf is the flags-to-config layer of the predrm commands.
// rmsim, rmserve and experiments declare their shared flags here and build
// solvers, task sets and telemetry outputs from them, so a shared flag
// means the same thing, and is checked the same way, in every command.
package rmconf

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/exact"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// Flags holds the values of the shared flags. Register binds the ones a
// command declares; the others keep their zero values.
type Flags struct {
	Engine       string
	WarmStart    bool
	SolverBudget string

	TaskSetFile    string
	Platform       string
	Seed           uint64
	Types          int
	Shards         int
	WorkConserving bool

	TraceOut   string
	Provenance bool
	MetricsOut string
	OpsAddr    string
	OpsLinger  time.Duration
	CPUProfile string
	MemProfile string
}

// Register declares the named shared flags on fs, bound to f's fields.
// An unknown name is a programming error and panics.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "engine":
			fs.StringVar(&f.Engine, name, "heuristic", "mapping engine: heuristic, greedy, or milp")
		case "warmstart":
			fs.BoolVar(&f.WarmStart, name, true, "reuse the previous activation's work: the milp engine repairs its last mapping into a pruning bound, the heuristic engines cache EDF probe verdicts across activations; heuristic decisions are identical either way, a milp search truncated by its node limit may decide differently")
		case "solver-budget":
			fs.StringVar(&f.SolverBudget, name, "", "per-activation solver budget: a node count (e.g. 20000) or a wall duration (e.g. 5ms); enables the budgeted fallback chain")
		case "taskset":
			fs.StringVar(&f.TaskSetFile, name, "", "task-set JSON file written by tracegen (empty: generate from -seed)")
		case "platform":
			fs.StringVar(&f.Platform, name, "", "platform spec like 5c1g or 64c8g (empty: the paper's 5c1g default; invalid with -taskset, which carries its platform)")
		case "seed":
			fs.Uint64Var(&f.Seed, name, 1, "workload seed")
		case "types":
			fs.IntVar(&f.Types, name, 100, "generated task types (ignored with -taskset)")
		case "shards":
			fs.IntVar(&f.Shards, name, 1, "partition the platform into this many shards, each admitting against only its own resources (scale-out mode)")
		case "work-conserving":
			fs.BoolVar(&f.WorkConserving, name, false, "ignore predicted-task reservations between activations")
		case "trace-out":
			fs.StringVar(&f.TraceOut, name, "", "write the structured event stream as JSONL to this file")
		case "provenance":
			fs.BoolVar(&f.Provenance, name, false, "record decision provenance (per-candidate verdicts, solver-chain hops) into the event stream; inspect with /explainz or tracetool explain")
		case "metrics-out":
			fs.StringVar(&f.MetricsOut, name, "", "write the metrics snapshot as JSON to this file")
		case "ops-addr":
			fs.StringVar(&f.OpsAddr, name, "", "serve the live introspection plane (/metrics, /statusz, /trace/tail, pprof) on this address while the run lasts (:0 picks a free port)")
		case "ops-linger":
			fs.DurationVar(&f.OpsLinger, name, 0, "keep the ops server up this long after the run finishes (requires -ops-addr)")
		case "cpuprofile":
			fs.StringVar(&f.CPUProfile, name, "", "write a CPU profile of the run to this file")
		case "memprofile":
			fs.StringVar(&f.MemProfile, name, "", "write a heap profile taken after the run to this file")
		default:
			panic("rmconf: unknown shared flag " + name)
		}
	}
}

// The checks Parse applies, by flag name. A check on a flag the command
// does not declare is skipped.
var (
	positive    = []string{"len", "types", "traces", "shards", "interarrival", "speed"}
	nonNegative = []string{"time-error", "overhead", "batch-window", "gantt", "exact-nodes"}
	unit        = []string{"accuracy"}
	// shardRefused holds state global to one engine, which engine.NewSharded
	// refuses at -shards > 1.
	shardRefused = []string{"predict", "provenance", "trace-out", "ops-addr", "fault-plan"}
	// needs: the first flag, given on the command line (a boolean given as
	// false does not count), has no effect unless one of the others holds
	// a non-default value. A row naming a flag the command lacks does not
	// apply: rmserve always serves its plane, so its -provenance needs no
	// -ops-addr.
	needs = [][]string{
		{"accuracy", "predict"},
		{"time-error", "predict"},
		{"overhead", "predict"},
		{"ops-linger", "ops-addr"},
		{"provenance", "trace-out", "ops-addr"},
	}
)

// parseError marks an error fs.Parse already reported with the usage.
type parseError struct{ error }

func (e parseError) Unwrap() error { return e.error }

// Parse parses args into fs and applies the shared checks: every float
// flag is finite, the numeric ranges above hold, no -shards > 1 refusal
// applies and no flag is given without the flag it needs.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return parseError{err}
	}
	var err error
	fs.VisitAll(func(fl *flag.Flag) {
		if x, ok := number(fl); ok && err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
			err = fmt.Errorf("-%s %v must be finite", fl.Name, fl.Value)
		}
	})
	if err != nil {
		return err
	}
	for _, r := range []struct {
		names []string
		ok    func(float64) bool
		want  string
	}{
		{positive, func(x float64) bool { return x > 0 }, "must be positive"},
		{nonNegative, func(x float64) bool { return x >= 0 }, "must be non-negative"},
		{unit, func(x float64) bool { return x >= 0 && x <= 1 }, "outside [0,1]"},
	} {
		for _, name := range r.names {
			if fl := fs.Lookup(name); fl != nil {
				if x, _ := number(fl); !r.ok(x) {
					return fmt.Errorf("-%s %v %s", name, fl.Value, r.want)
				}
			}
		}
	}
	if changed(fs, "shards") { // positive and not the default 1
		for _, name := range shardRefused {
			if changed(fs, name) {
				return fmt.Errorf("-%s is not supported with -shards > 1 (its state is global; see DESIGN.md §12)", name)
			}
		}
	}
	given := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { given[fl.Name] = true })
rows:
	for _, row := range needs {
		for _, name := range row {
			if fs.Lookup(name) == nil {
				continue rows
			}
		}
		if !given[row[0]] || fs.Lookup(row[0]).Value.String() == "false" {
			continue
		}
		for _, name := range row[1:] {
			if changed(fs, name) {
				continue rows
			}
		}
		return fmt.Errorf("-%s has no effect without -%s", row[0], strings.Join(row[1:], " or -"))
	}
	return nil
}

// number reads an int or float64 flag's value as a float64.
func number(fl *flag.Flag) (float64, bool) {
	g, ok := fl.Value.(flag.Getter)
	if !ok {
		return 0, false
	}
	switch v := g.Get().(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	}
	return 0, false
}

// changed reports whether the named flag exists and holds a non-default
// value.
func changed(fs *flag.FlagSet, name string) bool {
	fl := fs.Lookup(name)
	return fl != nil && fl.Value.String() != fl.DefValue
}

// Exit maps a command's error to its exit status: 0 on success and for
// -h, 2 for a command line fs could not parse (it already printed why),
// and 1 for every other error, which is printed as "prog: err".
func Exit(prog string, stderr io.Writer, err error) int {
	var perr parseError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &perr):
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", prog, err)
	return 1
}

// NewSolver builds one solver instance. With warm set, the heuristic
// engines cache EDF probe verdicts across activations and the exact
// engine seeds its search with a repaired warm bound; nodeLimit caps the
// exact search (0: exact.DefaultNodeLimit).
func NewSolver(engine string, warm bool, nodeLimit int) (core.Solver, error) {
	switch engine {
	case "milp":
		return &exact.Optimal{NodeLimit: nodeLimit, WarmStart: warm}, nil
	case "heuristic", "greedy":
		h := &core.Heuristic{Greedy: engine == "greedy"}
		if warm {
			h.Cache = sched.NewFeasCache(0)
		}
		return h, nil
	}
	return nil, fmt.Errorf("unknown engine %q", engine)
}

// Chain puts s, named engine, in front of the plain heuristic in a
// budgeted fallback chain; reject-only is the chain's implicit last
// resort. tracer, when non-nil, receives the chain's fallback events.
func Chain(engine string, s core.Solver, budget core.Budget, tracer *telemetry.Tracer) *core.BudgetedSolver {
	return &core.BudgetedSolver{
		Stages: []core.Stage{
			{Name: engine, Solver: s},
			{Name: "heuristic", Solver: &core.Heuristic{}},
		},
		Budget: budget,
		Tracer: tracer,
	}
}

// ParseBudget reads the -solver-budget syntax: an integer is a node
// budget, a Go duration (5ms, 1s) a wall-clock budget. Empty means no
// bound (the chain still absorbs errors).
func ParseBudget(s string) (core.Budget, error) {
	if s == "" {
		return core.Budget{}, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return core.Budget{}, fmt.Errorf("node budget %d must be positive", n)
		}
		return core.Budget{Nodes: n}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return core.Budget{}, fmt.Errorf("%q is neither a node count nor a duration", s)
	}
	if d <= 0 {
		return core.Budget{}, fmt.Errorf("wall budget %v must be positive", d)
	}
	return core.Budget{Wall: d}, nil
}

// TaskSet loads -taskset, or generates -types task types on -platform
// (the paper's 5c1g when empty). Either way it consumes exactly one Split
// of root, so the streams drawn from root afterwards do not depend on
// where the set came from.
func (f *Flags) TaskSet(root *rng.Rand) (*task.Set, error) {
	split := root.Split()
	if f.TaskSetFile != "" {
		if f.Platform != "" {
			return nil, errors.New("-platform has no effect with -taskset (the task set carries its platform)")
		}
		set, err := task.ReadFile(f.TaskSetFile)
		if err != nil {
			return nil, fmt.Errorf("load task set: %w", err)
		}
		return set, nil
	}
	plat := platform.Default()
	if f.Platform != "" {
		var err error
		if plat, err = platform.Parse(f.Platform); err != nil {
			return nil, fmt.Errorf("platform: %w", err)
		}
	}
	tcfg := task.DefaultGenConfig()
	tcfg.NumTypes = f.Types
	set, err := task.Generate(plat, tcfg, split)
	if err != nil {
		return nil, fmt.Errorf("task set: %w", err)
	}
	return set, nil
}

// EngineConfig is the engine configuration the shared flags describe for
// set, with tracer attached, plus the solver factory of -engine,
// -warmstart and -solver-budget. Shards cannot share solver state, so a
// sharded engine calls the factory once per shard; with one shard the
// configuration already holds a solver from it. Under -solver-budget each
// solver sits in front of the fallback chain, whose events go to tracer.
func (f *Flags) EngineConfig(set *task.Set, tracer *telemetry.Tracer) (engine.Config, func() core.Solver, error) {
	budget, err := ParseBudget(f.SolverBudget)
	if err != nil {
		return engine.Config{}, nil, fmt.Errorf("-solver-budget: %w", err)
	}
	if _, err := NewSolver(f.Engine, f.WarmStart, 0); err != nil {
		return engine.Config{}, nil, err
	}
	newSolver := func() core.Solver {
		s, _ := NewSolver(f.Engine, f.WarmStart, 0) // the name was checked above
		if f.SolverBudget != "" {
			s = Chain(f.Engine, s, budget, tracer)
		}
		return s
	}
	cfg := engine.Config{
		Platform:       set.Platform,
		TaskSet:        set,
		WorkConserving: f.WorkConserving,
		Tracer:         tracer,
		Provenance:     f.Provenance,
	}
	if f.Shards == 1 {
		cfg.Solver = newSolver()
	}
	return cfg, newSolver, nil
}
