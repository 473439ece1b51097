// Package sim drives a request trace through the platform and a resource
// manager: the discrete-event simulation behind every experiment in the
// paper's evaluation (Sec 5).
//
// Since the activation engine moved to internal/engine, sim is a
// virtual-clock driver of it: RunSharded walks the trace and hands each
// request (or each batch epoch of them) to the engine, which advances
// engine time to the arrival, charges
// the prediction/decision overhead (Sec 5.5), builds the S̄ problem
// (active jobs + arriving job + optional predicted job), runs the
// admission protocol, applies the resulting mapping (charging
// migrations), and continues. The wall-clock server (internal/serve)
// drives the very same engine from real time; DESIGN.md §11 states the
// equivalence argument, and internal/serve's differential test enforces
// it byte for byte.
//
// The Config/Result/StateSample types are aliases of the engine's — the
// simulator adds no state of its own — kept for the callers that name
// them (experiments, the public predrm wrappers).
package sim

import (
	"predrm/internal/engine"
	"predrm/internal/trace"
)

// Config assembles one simulation (alias of engine.Config; the simulator
// is a trace-driven front end to the shared activation engine).
type Config = engine.Config

// StateSample is the RM state handed to Config.StateProbe.
type StateSample = engine.StateSample

// ResourceSample is one resource's slice of a StateSample.
type ResourceSample = engine.ResourceSample

// ExecSegment is one contiguous piece of executed schedule.
type ExecSegment = engine.ExecSegment

// JobRecord is the per-request outcome.
type JobRecord = engine.JobRecord

// Result aggregates one trace's simulation.
type Result = engine.Result

// Run simulates tr under cfg and returns per-trace results: the
// one-shard, one-by-one case of RunSharded. The trace must be valid
// against cfg.TaskSet.
func Run(cfg Config, tr *trace.Trace) (*Result, error) {
	return RunSharded(cfg, ShardConfig{Shards: 1}, tr)
}
