package sim

import (
	"fmt"
	"math"

	"predrm/internal/engine"
	"predrm/internal/sched"
	"predrm/internal/trace"
)

// ShardConfig parameterises a scale-out run (alias of the engine's).
type ShardConfig = engine.ShardConfig

// RunSharded simulates tr on a sharded platform: arrivals are grouped
// into batch epochs of sc.BatchWindow engine-time units (0 keeps the
// paper's one-by-one admission) and each epoch is admitted through
// engine.Sharded — routed across the shards and solved per shard.
//
// With one shard the driven engine is a bare Engine, and a zero window
// admits every request as the singleton epoch closing at its own arrival
// (Activate) — the paper's one-by-one protocol, which is all Run is. The
// shardcheck gate pins both equivalences.
func RunSharded(cfg Config, sc ShardConfig, tr *trace.Trace) (*Result, error) {
	if math.IsNaN(sc.BatchWindow) || math.IsInf(sc.BatchWindow, 0) {
		return nil, fmt.Errorf("sim: BatchWindow %g must be finite", sc.BatchWindow)
	}
	eng, err := engine.NewSharded(cfg, sc)
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(cfg.TaskSet); err != nil {
		return nil, err
	}
	reqs := tr.Requests
	for i := 0; i < len(reqs); {
		if sc.BatchWindow <= 0 {
			if _, err := eng.Activate(i, reqs[i]); err != nil {
				return nil, err
			}
			i++
			continue
		}
		// Epoch: the maximal run of arrivals within BatchWindow of the
		// first; it closes when the window ends (or at the last arrival,
		// if a request landed exactly on the boundary past it).
		first := reqs[i].Arrival
		j := i + 1
		for j < len(reqs) && reqs[j].Arrival <= first+sc.BatchWindow+sched.Eps {
			j++
		}
		close := first + sc.BatchWindow
		if last := reqs[j-1].Arrival; last > close {
			close = last
		}
		if _, err := eng.ActivateEpoch(i, reqs[i:j], close); err != nil {
			return nil, err
		}
		i = j
	}
	if err := eng.Drain(); err != nil {
		return nil, err
	}
	return eng.Finalize(), nil
}
