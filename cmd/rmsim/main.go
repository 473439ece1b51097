// Command rmsim runs one resource-management simulation over a generated
// or loaded trace and reports acceptance, energy and migration statistics.
//
// Usage:
//
//	rmsim -engine heuristic -predict -accuracy 0.9 -seed 1
//	rmsim -taskset traces/taskset.json -trace traces/trace-VT-000.json -engine milp -gantt 60
//	rmsim -predict -trace-out events.jsonl -metrics-out metrics.json -cpuprofile cpu.pprof
//
// A trace produced by tracegen should be loaded together with its
// taskset.json (task-set generation is part of the workload's identity);
// without -taskset, rmsim regenerates the set from -seed and -types.
//
// Observability: -trace-out streams the structured simulation event log as
// JSONL (see the README's Observability section for the schema),
// -metrics-out writes the run's metrics snapshot as JSON and prints a
// solver-latency summary, and -cpuprofile/-memprofile write runtime/pprof
// profiles of the simulation. -provenance records each admission
// decision's full causal chain into the event stream (decision events;
// inspect with `tracetool explain` or the ops server's /explainz).
// -ops-addr mounts the live introspection plane (internal/obs) for the
// duration of the run: /metrics in Prometheus exposition format, /statusz
// JSON RM state with SLO burn rates, /explainz decision narratives,
// /trace/tail live event streaming, and /debug/pprof; -ops-linger keeps
// it up after the run so the end state can be inspected.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"predrm/internal/faultinject"
	"predrm/internal/gantt"
	"predrm/internal/predict"
	"predrm/internal/rmconf"
	"predrm/internal/rng"
	"predrm/internal/sim"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return rmconf.Exit("rmsim", stderr, simulate(args, stdout, stderr))
}

func simulate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f rmconf.Flags
	f.Register(fs, "engine", "warmstart", "solver-budget", "taskset", "platform", "seed", "types",
		"shards", "work-conserving", "trace-out", "provenance", "metrics-out", "ops-addr", "ops-linger",
		"cpuprofile", "memprofile")
	var (
		tracePath = fs.String("trace", "", "trace JSON file (empty: generate)")
		batchWin  = fs.Float64("batch-window", 0, "collect arrivals for this many time units and admit each window as one batch epoch (0: the paper's one-by-one protocol)")
		usePred   = fs.Bool("predict", false, "enable the oracle predictor")
		accuracy  = fs.Float64("accuracy", 1.0, "oracle task-type accuracy in [0,1]")
		timeErr   = fs.Float64("time-error", 0, "oracle arrival-time normalized RMSE")
		overhead  = fs.Float64("overhead", 0, "prediction overhead in time units")
		length    = fs.Int("len", 500, "generated trace length")
		group     = fs.String("group", "VT", "deadline group: VT or LT")
		meanIA    = fs.Float64("interarrival", 3.0, "generated mean interarrival")
		verbose   = fs.Bool("v", false, "print per-request outcomes")
		showGantt = fs.Int("gantt", 0, "render the first N time units of the executed schedule")
		faultPlan = fs.String("fault-plan", "", "deterministic fault plan, e.g. seed=7,solver-error=0.2,latency-rate=0.1,latency=0.5 (see internal/faultinject); enables the fallback chain")
	)
	if err := rmconf.Parse(fs, args); err != nil {
		return err
	}
	tight := trace.VeryTight
	switch *group {
	case "VT", "vt":
	case "LT", "lt":
		tight = trace.LessTight
	default:
		return fmt.Errorf("unknown deadline group %q (want VT or LT)", *group)
	}

	root := rng.New(f.Seed)
	set, err := f.TaskSet(root)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if *tracePath != "" {
		if tr, err = trace.ReadFile(*tracePath); err != nil {
			return fmt.Errorf("load trace: %w", err)
		}
	} else {
		gcfg := trace.GenConfig{
			Length:           *length,
			InterarrivalMean: *meanIA,
			InterarrivalStd:  *meanIA / 3,
			Tightness:        tight,
		}
		if tr, err = trace.Generate(set, gcfg, root.Split()); err != nil {
			return fmt.Errorf("generate trace: %w", err)
		}
	}

	out, err := f.Open("rmsim", stderr, f.OpsAddr != "")
	if err != nil {
		return err
	}
	defer out.Close()
	tracer := out.Tracer
	cfg, newSolver, err := f.EngineConfig(set, tracer)
	if err != nil {
		return err
	}
	cfg.RecordExecution = *showGantt > 0
	if *usePred {
		o, err := predict.NewOracle(tr, predict.OracleConfig{
			TypeAccuracy: *accuracy,
			TimeError:    *timeErr,
			Overhead:     *overhead,
			NumTypes:     set.Len(),
			Seed:         f.Seed + 17,
		})
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		cfg.Predictor = o
	}
	resilient := f.SolverBudget != "" || *faultPlan != ""
	if f.MetricsOut != "" || resilient || f.OpsAddr != "" {
		// The resilience chain always collects metrics so the degraded-mode
		// summary below can report what actually happened; the ops server
		// renders the same registry on /metrics.
		cfg.Metrics = telemetry.NewRegistry()
	}
	if *faultPlan != "" {
		// -fault-plan is refused at -shards > 1, so this is the one solver.
		plan, err := faultinject.ParsePlan(*faultPlan)
		if err != nil {
			return fmt.Errorf("fault-plan: %w", err)
		}
		budget, _ := rmconf.ParseBudget(f.SolverBudget) // EngineConfig checked it
		primary, _ := rmconf.NewSolver(f.Engine, f.WarmStart, 0)
		cfg.Solver = rmconf.Chain(f.Engine, plan.Solver(primary, tracer), budget, tracer)
		cfg.OverheadHook = plan.Hook(tracer, cfg.Metrics)
		if cfg.Predictor != nil {
			cfg.Predictor = plan.Predictor(cfg.Predictor, tracer, cfg.Metrics)
		}
	}
	plane, err := out.ServeOps(cfg.Metrics.Snapshot)
	if err != nil {
		return err
	}
	if plane != nil {
		cfg.StateProbe = plane.Probe
	}

	res, err := sim.RunSharded(cfg, sim.ShardConfig{
		Shards:      f.Shards,
		BatchWindow: *batchWin,
		NewSolver:   newSolver,
	}, tr)
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	if err := out.Finish(res.Telemetry); err != nil {
		return err
	}

	if *verbose {
		for _, j := range res.Jobs {
			status := "rejected"
			if j.Accepted {
				status = fmt.Sprintf("finished %.3f", j.FinishTime)
			}
			fmt.Fprintf(stdout, "req %3d type %3d arr %9.3f dl %9.3f  %s\n",
				j.ID, j.Type, j.Arrival, j.AbsDeadline, status)
		}
	}
	scaleOut := ""
	if f.Shards > 1 || *batchWin > 0 {
		scaleOut = fmt.Sprintf("%d shard(s), batch window %g", f.Shards, *batchWin)
	}
	rmconf.Report(stdout, f.Engine, fmt.Sprintf("prediction %v", *usePred), set.Platform.Spec(), scaleOut, res, plane)
	if plane != nil {
		for _, w := range plane.SLO().Report().Windows {
			fmt.Fprintf(stdout, "slo window %-6g rejection burn %.2f, miss burn %.2f\n",
				w.Window, w.RejectionBurn, w.MissBurn)
		}
	}
	if resilient && res.Telemetry != nil {
		c := res.Telemetry.Counters
		fmt.Fprintf(stdout, "resilience:       %d fallbacks (%d stage errors, %d budget exhaustions), %d reject-only\n",
			c["resilience.fallbacks"], c["resilience.stage_errors"],
			c["resilience.budget_exhausted"], c["resilience.reject_only"])
		if n := c["faultinject.solver_errors"] + c["faultinject.latency_spikes"] +
			c["faultinject.predictor_outages"] + c["faultinject.predictor_corruptions"]; n > 0 {
			fmt.Fprintf(stdout, "faults injected:  %d (%d solver, %d latency, %d outage, %d corrupt)\n", n,
				c["faultinject.solver_errors"], c["faultinject.latency_spikes"],
				c["faultinject.predictor_outages"], c["faultinject.predictor_corruptions"])
		}
	}
	if *showGantt > 0 {
		opening := gantt.Clip(res.Execution, 0, float64(*showGantt))
		if chart, err := gantt.New(set.Platform, opening); err == nil {
			fmt.Fprintf(stdout, "\nexecuted schedule, t in [0, %d):\n", *showGantt)
			if err := chart.Render(stdout, 100); err != nil {
				return fmt.Errorf("render: %w", err)
			}
		}
	}
	if err := out.CloseOps(); err != nil {
		return err
	}
	if res.DeadlineMisses > 0 {
		return errors.New("deadline misses detected: resource-manager invariant broken")
	}
	return nil
}
