package rmconf

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"predrm/internal/engine"
	"predrm/internal/obs"
)

// Report prints the run summary rmsim and rmserve share: the engine line
// (mode is its parenthetical), the platform, the scale-out line unless
// scaleOut is empty, the outcome counts, the decision-reason histograms,
// solver latency, the warm-start caches' hit rates and, when plane is
// non-nil, its SLO line.
func Report(w io.Writer, engineName, mode, platform, scaleOut string, res *engine.Result, plane *obs.Plane) {
	fmt.Fprintf(w, "engine:           %s (%s)\n", engineName, mode)
	fmt.Fprintf(w, "platform:         %s\n", platform)
	if scaleOut != "" {
		fmt.Fprintf(w, "scale-out:        %s\n", scaleOut)
	}
	fmt.Fprintf(w, "requests:         %d\n", res.Requests)
	fmt.Fprintf(w, "accepted:         %d\n", res.Accepted)
	fmt.Fprintf(w, "rejected:         %d (%.2f%%)\n", res.Rejected, res.RejectionPct())
	fmt.Fprintf(w, "total energy:     %.2f J\n", res.TotalEnergy)
	fmt.Fprintf(w, "migrations:       %d (%.2f J)\n", res.Migrations, res.MigrationEnergy)
	fmt.Fprintf(w, "makespan:         %.2f\n", res.MakeSpan)
	fmt.Fprintf(w, "deadline misses:  %d\n", res.DeadlineMisses)
	if t := res.Telemetry; t != nil {
		PrintReasonLine(w, "admit reasons:    ", t.Counters, "sim.admit_reason.")
		PrintReasonLine(w, "reject reasons:   ", t.Counters, "sim.reject_reason.")
		if lat := t.Histograms["sim.solver_seconds"]; lat.Count > 0 {
			fmt.Fprintf(w, "solver latency:   p50 %.1f µs, p95 %.1f µs, max %.1f µs (%d activations)\n",
				lat.Quantile(0.50)*1e6, lat.Quantile(0.95)*1e6, lat.Max*1e6, lat.Count)
		}
		c := t.Counters
		for _, cache := range []struct{ prefix, note string }{{"exact.cache.", ""}, {"core.cache.", "; heuristic probe cache"}} {
			if hits, misses := c[cache.prefix+"hits"], c[cache.prefix+"misses"]; hits+misses > 0 {
				fmt.Fprintf(w, "feascache:        %.1f%% hit rate (%d hits, %d misses%s)\n",
					100*float64(hits)/float64(hits+misses), hits, misses, cache.note)
			}
		}
		if attempts := c["exact.warmstart.attempts"]; attempts > 0 {
			fmt.Fprintf(w, "warmstart:        %.1f%% seed-feasible (%d/%d repairs), %d bound cuts\n",
				100*float64(c["exact.warmstart.seeded"])/float64(attempts),
				c["exact.warmstart.seeded"], attempts, c["exact.warmstart.bound_cuts"])
		}
	}
	if plane != nil {
		rep := plane.SLO().Report()
		fmt.Fprintf(w, "slo:              rejection %.1f%% of %.0f%% budget; miss %.2g%% of %.2g%% budget\n",
			100*rep.TotalRejectionRate, 100*rep.RejectionTarget,
			100*rep.TotalMissRate, 100*rep.MissTarget)
	}
}

// PrintReasonLine renders one decision-reason histogram ("plain 12,
// prediction_dropped 3") from the counters under prefix, sorted by reason;
// nothing is printed when the histogram is empty.
func PrintReasonLine(w io.Writer, label string, counters map[string]int64, prefix string) {
	var reasons []string
	for name := range counters {
		if strings.HasPrefix(name, prefix) {
			reasons = append(reasons, strings.TrimPrefix(name, prefix))
		}
	}
	if len(reasons) == 0 {
		return
	}
	sort.Strings(reasons)
	parts := make([]string, len(reasons))
	for i, r := range reasons {
		parts[i] = fmt.Sprintf("%s %d", r, counters[prefix+r])
	}
	fmt.Fprintf(w, "%s%s\n", label, strings.Join(parts, ", "))
}
