// Command experiments regenerates the paper's evaluation: every table and
// figure of Sec 5 plus this repository's ablations.
//
// Usage:
//
//	experiments -exp all                    # everything, laptop scale
//	experiments -exp fig2b -traces 100      # one figure, more traces
//	experiments -exp fig5 -profile paper    # literal Sec 5.1 parameters
//
// Experiment ids: motivational, milp-vs-heuristic, fig2a, fig2b, fig3a,
// fig3b, fig4a, fig4b, fig5, ablation-regret, ablation-migration,
// online-predictors, lookahead, baseline-static, load-surface, telemetry,
// fault-sweep, scale-sweep, all.
//
// Observability: -metrics-out writes the merged telemetry snapshot of the
// experiments that collect one (currently "telemetry") as JSON, -trace-out
// streams their structured event logs as JSONL (analysable with
// tracetool), -cpuprofile/-memprofile capture runtime/pprof profiles of
// the whole run, and -ops-addr serves the live introspection plane
// (/metrics, /statusz, /trace/tail — see internal/obs) while the sweep
// runs; -ops-linger keeps it up after the last experiment so a final
// scrape can be taken.
//
// Scale-out: -platform gives the comma-separated platform specs the
// scale-sweep experiment grows across (default "8c1g,16c2g,64c8g"; see
// platform.Parse for the spec grammar). The paper experiments always run
// on the paper's 5c1g platform.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"predrm/internal/experiments"
	"predrm/internal/platform"
	"predrm/internal/rmconf"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return rmconf.Exit("experiments", stderr, sweep(args, stdout, stderr))
}

func sweep(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f rmconf.Flags
	f.Register(fs, "seed", "warmstart", "metrics-out", "trace-out", "cpuprofile", "memprofile", "ops-addr", "ops-linger")
	var (
		exp       = fs.String("exp", "all", "experiment id (see doc comment)")
		traces    = fs.Int("traces", 30, "traces per group (paper: 500)")
		traceLen  = fs.Int("len", 200, "requests per trace (paper: 500)")
		profile   = fs.String("profile", "calibrated", "workload profile: calibrated or paper")
		nodes     = fs.Int("exact-nodes", 0, "exact-solver node limit per activation (0 = default)")
		csvDir    = fs.String("csv", "", "also write each table as CSV into this directory")
		platSpecs = fs.String("platform", "8c1g,16c2g,64c8g", "comma-separated platform specs the scale-sweep experiment grows across (other experiments run the paper's 5c1g platform)")
	)
	if err := rmconf.Parse(fs, args); err != nil {
		return err
	}

	cfg := experiments.DefaultConfig()
	cfg.Traces = *traces
	cfg.TraceLen = *traceLen
	cfg.Seed = f.Seed
	cfg.ExactNodeLimit = *nodes
	cfg.WarmStart = f.WarmStart
	switch *profile {
	case "calibrated":
		cfg.Profile = experiments.CalibratedProfile()
	case "paper":
		cfg.Profile = experiments.PaperProfile()
	default:
		return fmt.Errorf("unknown profile %q", *profile)
	}

	var scaleSpecs []string
	for _, s := range strings.Split(*platSpecs, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if _, err := platform.Parse(s); err != nil {
			return fmt.Errorf("-platform: %w", err)
		}
		scaleSpecs = append(scaleSpecs, s)
	}
	if len(scaleSpecs) == 0 {
		return fmt.Errorf("-platform %q: no specs", *platSpecs)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		// impact-lt/impact-vt print Fig 2 and Fig 3 from a single run.
		ids = []string{
			"motivational", "milp-vs-heuristic",
			"impact-lt", "impact-vt",
			"fig4a", "fig4b", "fig5",
			"ablation-regret", "ablation-migration", "online-predictors",
			"lookahead", "baseline-static", "load-surface", "telemetry",
			"fault-sweep", "scale-sweep",
		}
	}
	// Without -trace-out, a ring-only tracer lets /trace/tail subscribers
	// still stream the telemetry experiments' events live.
	out, err := f.Open("experiments", stderr, f.OpsAddr != "")
	if err != nil {
		return err
	}
	defer out.Close()
	cfg.Tracer = out.Tracer
	// Merged snapshot of the telemetry-collecting experiments finished so
	// far, refreshed after each id; the ops plane scrapes it live.
	var merged atomic.Pointer[telemetry.Snapshot]
	plane, err := out.ServeOps(merged.Load)
	if err != nil {
		return err
	}
	if plane != nil {
		cfg.StateProbe = plane.Probe
	}
	start := time.Now()
	var snaps []*telemetry.Snapshot
	for _, id := range ids {
		id = strings.TrimSpace(id)
		tables, snap, err := runExperiment(id, cfg, scaleSpecs)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if snap != nil {
			snaps = append(snaps, snap)
			merged.Store(telemetry.Merge(snaps...))
		}
		for _, t := range tables {
			if err := t.Fprint(stdout); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, id, tables); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
	}
	all := telemetry.Merge(snaps...)
	if err := out.Finish(all); err != nil {
		return err
	}
	if err := out.CloseOps(); err != nil {
		return err
	}
	if len(snaps) > 0 {
		// Decision-reason histograms over every telemetry-collecting
		// experiment in the sweep (the enumerated vocabulary makes these
		// comparable across runs and profiles).
		rmconf.PrintReasonLine(stdout, "admit reasons:  ", all.Counters, "sim.admit_reason.")
		rmconf.PrintReasonLine(stdout, "reject reasons: ", all.Counters, "sim.reject_reason.")
	}
	fmt.Fprintf(stdout, "done in %v (profile=%s, %d traces x %d requests)\n",
		time.Since(start).Round(time.Millisecond), cfg.Profile.Name, cfg.Traces, cfg.TraceLen)
	return nil
}

// runExperiment executes one experiment and returns its tables plus, for
// telemetry-collecting experiments, the merged metrics snapshot.
func runExperiment(id string, cfg experiments.Config, scaleSpecs []string) ([]*experiments.Table, *telemetry.Snapshot, error) {
	sweep := []float64{0.25, 0.5, 0.75, 1.0}
	switch id {
	case "motivational":
		return tables(experiments.Motivational())
	case "milp-vs-heuristic":
		return tables(experiments.MILPvsHeuristic(cfg))
	case "impact-lt", "fig2a", "fig3b", "impact-vt", "fig2b", "fig3a":
		tight := trace.LessTight
		if id == "impact-vt" || id == "fig2b" || id == "fig3a" {
			tight = trace.VeryTight
		}
		ts, _, err := tables(experiments.PredictionImpact(cfg, tight))
		switch {
		case err != nil:
			return nil, nil, err
		case strings.HasPrefix(id, "fig2"):
			ts = ts[:1] // rejection
		case strings.HasPrefix(id, "fig3"):
			ts = ts[1:] // energy
		}
		return ts, nil, nil
	case "fig4a":
		return tables(experiments.Fig4a(cfg, sweep))
	case "fig4b":
		return tables(experiments.Fig4b(cfg, sweep))
	case "fig5":
		return tables(experiments.Fig5(cfg, []float64{0, 0.01, 0.02, 0.04, 0.08, 0.25, 0.5, 1.0}))
	case "ablation-regret":
		return tables(experiments.AblationRegret(cfg))
	case "ablation-migration":
		return tables(experiments.AblationMigration(cfg))
	case "baseline-static":
		return tables(experiments.BaselineStatic(cfg))
	case "lookahead":
		return tables(experiments.LookaheadSweep(cfg, []int{1, 2, 3, 4}))
	case "online-predictors":
		return tables(experiments.OnlinePredictors(cfg))
	case "load-surface":
		return tables(experiments.LoadSurface(cfg, []float64{1.2, 1.7, 2.2, 3.0, 4.5}))
	case "scale-sweep":
		return tables(experiments.ScaleSweep(cfg, scaleSpecs))
	case "telemetry":
		r, err := experiments.TelemetryProbe(cfg)
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, r.Merged, nil
	case "fault-sweep":
		r, err := experiments.FaultSweep(cfg, []float64{0, 0.1, 0.25, 0.5})
		if err != nil {
			return nil, nil, err
		}
		var snaps []*telemetry.Snapshot
		for _, s := range r.PerRate {
			snaps = append(snaps, s)
		}
		return []*experiments.Table{r.Table}, telemetry.Merge(snaps...), nil
	}
	return nil, nil, fmt.Errorf("unknown experiment id %q", id)
}

// tables returns the tables of an experiment that collects no telemetry.
func tables[R interface{ Tables() []*experiments.Table }](r R, err error) ([]*experiments.Table, *telemetry.Snapshot, error) {
	if err != nil {
		return nil, nil, err
	}
	return r.Tables(), nil, nil
}

// writeCSVs exports an experiment's tables into dir.
func writeCSVs(dir, id string, tables []*experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range tables {
		name := id
		if len(tables) > 1 {
			name = fmt.Sprintf("%s-%d", id, i+1)
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
