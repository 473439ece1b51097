package main

import (
	"fmt"
	"os"
	"sort"
)

// metricDef is one metric of the benchmark's catalogue. BENCHMARK.json
// lists the same names and units (TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd is printed by every plain run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"activations_per_s", "1/s", "higher", 0.25},
	{"decision_p50_us", "us", "lower", 0.25},
	{"rejection_pct", "%", "lower", 0.15},
	{"energy_per_accepted_j", "J", "lower", 0.1},
	{"heap_peak_mb", "MB", "lower", 0.25},
}

// perLayer is printed by every traced run (--trace 1). A metric whose
// layer stays idle on a workload reads 0.
var perLayer = []metricDef{
	{name: "engine.self_us", unit: "us", better: "lower"},
	{name: "engine.replan_us", unit: "us", better: "lower"},
	{name: "engine.advance_us", unit: "us", better: "lower"},
	{name: "engine.allocs_per_activation", unit: "count", better: "lower"},
	{name: "engine.bytes_per_activation", unit: "B", better: "lower"},
	{name: "engine.jobs_per_problem", unit: "count", better: "lower"},
	{name: "engine.epoch_us_p50", unit: "us", better: "lower"},
	{name: "engine.epoch_us_p99", unit: "us", better: "lower"},
	{name: "engine.requests_per_epoch", unit: "count", better: "higher"},
	{name: "engine.shard_solve_overlap", unit: "ratio", better: "higher"},
	{name: "engine.shard_accept_imbalance", unit: "ratio", better: "lower"},
	{name: "core.solve_us_p50", unit: "us", better: "lower"},
	{name: "core.solve_us_p99", unit: "us", better: "lower"},
	{name: "core.solves_per_activation", unit: "count", better: "lower"},
	{name: "core.fallback_ratio", unit: "ratio", better: "lower"},
	{name: "core.feascache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "exact.solve_us_p50", unit: "us", better: "lower"},
	{name: "exact.solve_us_p99", unit: "us", better: "lower"},
	{name: "exact.nodes_per_solve", unit: "count", better: "lower"},
	{name: "exact.truncated_ratio", unit: "ratio", better: "lower"},
	{name: "exact.warm_seeded_ratio", unit: "ratio", better: "higher"},
	{name: "exact.warm_cuts_per_solve", unit: "count", better: "higher"},
	{name: "exact.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sched.schedule_us", unit: "us", better: "lower"},
	{name: "sched.feasible_mapping_us", unit: "us", better: "lower"},
	{name: "sched.resource_feasible_ns", unit: "ns", better: "lower"},
	{name: "predict.us_per_activation", unit: "us", better: "lower"},
	{name: "predict.type_hit_ratio", unit: "ratio", better: "higher"},
	{name: "predict.arrival_abs_err", unit: "tu", better: "lower"},
	{name: "serve.roundtrip_us_p50", unit: "us", better: "lower"},
	{name: "serve.roundtrip_us_p99", unit: "us", better: "lower"},
	{name: "serve.overhead_us", unit: "us", better: "lower"},
	{name: "serve.send_lag_us_p50", unit: "us", better: "lower"},
	{name: "serve.send_lag_us_p99", unit: "us", better: "lower"},
	{name: "serve.max_rate_rps", unit: "1/s", better: "higher"},
	{name: "trace.plain_activations_per_s", unit: "1/s", better: "higher"},
	{name: "trace.traced_activations_per_s", unit: "1/s", better: "higher"},
	{name: "trace.plain_decision_p50_us", unit: "us", better: "lower"},
	{name: "trace.plain_decision_p99_us", unit: "us", better: "lower"},
	{name: "trace.traced_decision_p50_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// report is one run's outcome before printing.
type report struct {
	attempted, failed int
	values            map[string]float64
	log               *spanLog // traced runs: spans to write out
}

func newReport(attempted, failed int) *report {
	return &report{attempted: attempted, failed: failed, values: make(map[string]float64)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail counts n more failed requests and says why on standard error.
func (r *report) fail(n int, err error) {
	r.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
}

// layerMetrics fills the metrics the span log measures directly.
func (r *report) layerMetrics(l *spanLog) {
	q := l.engineSelf.quantiles(0.5)
	r.set("engine.self_us", q[0]*1e6)
	r.set("engine.jobs_per_problem", ratio(float64(l.jobs), float64(l.solves)))
	q = l.coreSolve.quantiles(0.5, 0.99)
	r.set("core.solve_us_p50", q[0]*1e6)
	r.set("core.solve_us_p99", q[1]*1e6)
	r.set("core.solves_per_activation", ratio(float64(l.solves), float64(l.requests)))
	r.set("core.fallback_ratio", ratio(float64(l.fallbacks), float64(l.forecastCalls)))
	q = l.exactSolve.quantiles(0.5, 0.99)
	n := float64(l.exactSolve.n)
	r.set("exact.solve_us_p50", q[0]*1e6)
	r.set("exact.solve_us_p99", q[1]*1e6)
	r.set("exact.nodes_per_solve", ratio(float64(l.exactNodes), n))
	r.set("exact.truncated_ratio", ratio(float64(l.exactTruncated), n))
	r.set("exact.warm_seeded_ratio", ratio(float64(l.exactWarm), n))
	r.set("exact.warm_cuts_per_solve", ratio(float64(l.exactWarmCuts), n))
	r.set("predict.us_per_activation", ratio(l.predictTime, float64(l.requests))*1e6)
	r.set("predict.type_hit_ratio", ratio(float64(l.typeHits), float64(l.typeScored)))
	r.set("predict.arrival_abs_err", ratio(l.arrivalErrSum, float64(l.typeScored)))
}

// replay times the sched kernels on the captured problems and checks
// that every admitted mapping is feasible.
func (r *report) replay(caps []captured) {
	res := replayCaptured(caps, replayBudget)
	if res.mismatches > 0 {
		r.fail(res.mismatches, fmt.Errorf("%d of %d captured solver verdicts disagree with FeasibleMapping", res.mismatches, res.checked))
	}
	r.set("sched.schedule_us", res.scheduleUS)
	r.set("sched.feasible_mapping_us", res.feasibleUS)
	r.set("sched.resource_feasible_ns", res.resourceNS)
}

// tracingOverhead records plain versus traced throughput and median
// decision latency, and the plain phase's p99 (seconds in, microseconds
// out).
func (r *report) tracingOverhead(plainAPS, tracedAPS, plainP50, plainP99, tracedP50 float64) {
	r.set("trace.plain_activations_per_s", plainAPS)
	r.set("trace.traced_activations_per_s", tracedAPS)
	r.set("trace.plain_decision_p50_us", plainP50*1e6)
	r.set("trace.plain_decision_p99_us", plainP99*1e6)
	r.set("trace.traced_decision_p50_us", tracedP50*1e6)
	r.set("trace.overhead_pct", 100*ratio(plainAPS-tracedAPS, plainAPS))
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the printed metric set: every end-to-end metric for a
// plain run, every per-layer metric for a traced one.
func (r *report) result(traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return out, fmt.Errorf("workload did not measure %s", d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	var extra []string
	for name := range r.values {
		if _, ok := out.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return out, fmt.Errorf("metrics outside the catalogue: %v", extra)
	}
	if out.Attempted < 1 {
		return out, fmt.Errorf("no request was attempted")
	}
	return out, nil
}
