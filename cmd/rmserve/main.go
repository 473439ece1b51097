// Command rmserve runs the resource manager as a long-lived wall-clock
// service: the same activation engine the simulator drives (admission
// protocol, EDF dispatch, migration charging), fed live over HTTP
// instead of from a recorded trace.
//
// Usage:
//
//	rmserve -addr :8080 -engine heuristic
//	rmserve -addr :8080 -taskset traces/taskset.json -engine milp -speed 50
//	rmserve -addr :8080 -solver-budget 5ms -provenance -trace-out events.jsonl
//
// Submit requests with `tracegen -fire http://localhost:8080` (live
// load generation / trace replay) or plain curl:
//
//	curl -d '{"type": 3, "deadline": 12.5}' localhost:8080/v1/requests
//	curl localhost:8080/v1/decisions/0
//
// Every non-/v1 path is the live introspection plane (internal/obs):
// /metrics, /statusz, /explainz, /trace/tail, /debug/pprof.
//
// -speed scales engine time against wall time (speed N means N engine
// time units per real second), so recorded traces can be replayed live
// at any compression without changing a single admission decision.
//
// On SIGINT/SIGTERM the server shuts down gracefully: intake answers
// 503, open tail streams get their terminal event, in-flight activations
// finish, and the remaining admitted jobs drain before the final
// rmsim-style summary prints. A second signal — or -drain-timeout —
// abandons the drain and exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"predrm/internal/engine"
	"predrm/internal/obs"
	"predrm/internal/rmconf"
	"predrm/internal/rng"
	"predrm/internal/serve"
	"predrm/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	return rmconf.Exit("rmserve", stderr, serveRM(args, stdout, stderr))
}

func serveRM(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("rmserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var f rmconf.Flags
	f.Register(fs, "engine", "warmstart", "solver-budget", "taskset", "platform", "seed", "types",
		"shards", "work-conserving", "trace-out", "provenance")
	var (
		addr         = fs.String("addr", ":8080", "address to serve the RM API and introspection plane on (:0 picks a free port)")
		speed        = fs.Float64("speed", 1, "engine time units per real second (replay compression; decisions are speed-invariant)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown may wait for in-flight jobs to drain")
	)
	if err := rmconf.Parse(fs, args); err != nil {
		return err
	}
	set, err := f.TaskSet(rng.New(f.Seed))
	if err != nil {
		return err
	}
	// A multi-shard engine refuses the tracer (engine.NewSharded), so
	// /trace/tail and /explainz go dark there; the rest of the plane
	// (metrics, statusz, SLO burn) stays live.
	out, err := f.Open("rmserve", stderr, f.Shards == 1)
	if err != nil {
		return err
	}
	defer out.Close()
	cfg, newSolver, err := f.EngineConfig(set, out.Tracer)
	if err != nil {
		return err
	}
	cfg.Metrics = telemetry.NewRegistry()

	plane := obs.NewPlane(obs.Options{
		Snapshot: cfg.Metrics.Snapshot,
		Tracer:   out.Tracer,
	})
	srv, err := serve.New(serve.Config{
		Engine: cfg,
		Shard:  engine.ShardConfig{Shards: f.Shards, NewSolver: newSolver},
		Clock:  serve.NewWallClock(*speed),
		Plane:  plane,
	})
	if err != nil {
		return err
	}
	if err := srv.Listen(*addr); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "rmserve: serving on %s (engine %s, platform %s, %d shard(s), speed %gx)\n",
		srv.URL(), f.Engine, set.Platform.Spec(), f.Shards, *speed)
	fmt.Fprintf(stderr, "rmserve: POST %s/v1/requests, introspection at %s/statusz\n", srv.URL(), srv.URL())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop() // a second signal kills the process the default way
	fmt.Fprintf(stderr, "rmserve: signal received, draining (up to %v; signal again to abort)\n", *drainTimeout)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(dctx)
	res := srv.Result()
	if err := out.Finish(res.Telemetry); err != nil {
		return err
	}

	scaleOut := ""
	if f.Shards > 1 {
		scaleOut = fmt.Sprintf("%d shards", f.Shards)
	}
	rmconf.Report(stdout, f.Engine, fmt.Sprintf("speed %gx", *speed), set.Platform.Spec(), scaleOut, res, plane)

	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	if err := srv.Err(); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	if res.DeadlineMisses > 0 {
		return errors.New("deadline misses detected: resource-manager invariant broken")
	}
	return nil
}
