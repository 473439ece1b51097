package rmconf

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"predrm/internal/obs"
	"predrm/internal/telemetry"
)

// Outputs owns what the telemetry flags open: the -trace-out stream, the
// CPU profile and the -ops-addr server. Finish and CloseOps release them
// with every error checked; Close is the deferred best-effort release for
// error paths.
type Outputs struct {
	// Tracer is the run's event tracer, nil when nothing consumes events.
	Tracer *telemetry.Tracer

	flags     *Flags
	prog      string
	stderr    io.Writer
	traceFile *os.File
	cpuFile   *os.File
	ops       *obs.Server
}

// Open opens the -trace-out stream and starts the -cpuprofile profile.
// Without -trace-out, ring asks for a ring-only tracer that backs a live
// plane's /trace/tail and /explainz. prog prefixes the diagnostics
// written to stderr.
func (f *Flags) Open(prog string, stderr io.Writer, ring bool) (*Outputs, error) {
	o := &Outputs{flags: f, prog: prog, stderr: stderr}
	if f.TraceOut != "" {
		file, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, fmt.Errorf("trace-out: %w", err)
		}
		o.traceFile = file
		o.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Sink: file})
	} else if ring {
		o.Tracer = telemetry.NewTracer(telemetry.TracerOptions{})
	}
	if f.CPUProfile != "" {
		file, err := os.Create(f.CPUProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(file); err != nil {
				file.Close()
			}
		}
		if err != nil {
			o.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		o.cpuFile = file
	}
	return o, nil
}

// ServeOps serves the live introspection plane on -ops-addr, backed by
// snapshot and the run's tracer. Without -ops-addr it returns a nil plane.
func (o *Outputs) ServeOps(snapshot func() *telemetry.Snapshot) (*obs.Plane, error) {
	if o.flags.OpsAddr == "" {
		return nil, nil
	}
	plane := obs.NewPlane(obs.Options{Snapshot: snapshot, Tracer: o.Tracer})
	srv, err := obs.Serve(o.flags.OpsAddr, plane)
	if err != nil {
		return nil, fmt.Errorf("ops-addr: %w", err)
	}
	o.ops = srv
	fmt.Fprintf(o.stderr, "%s: ops server on %s (try %s/statusz)\n", o.prog, srv.URL(), srv.URL())
	return plane, nil
}

// Finish completes the file outputs after a successful run: it stops the
// CPU profile, flushes and closes the -trace-out stream, warns when the
// tracer's ring overflowed, writes the -memprofile heap profile, and
// writes snap to -metrics-out.
func (o *Outputs) Finish(snap *telemetry.Snapshot) error {
	if o.cpuFile != nil {
		pprof.StopCPUProfile()
		err := o.cpuFile.Close()
		o.cpuFile = nil
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if o.traceFile != nil {
		// A sink write failure means the JSONL stream on disk is silently
		// truncated; surface it rather than shipping a partial trace.
		file := o.traceFile
		o.traceFile = nil
		if err := o.Tracer.Flush(); err != nil {
			file.Close()
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := file.Close(); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		if err := o.Tracer.Err(); err != nil {
			return fmt.Errorf("trace-out: event stream truncated: %w", err)
		}
	}
	if n := o.Tracer.Dropped(); n > 0 {
		fmt.Fprintf(o.stderr, "%s: warning: event ring overflowed, %d event(s) lost from the in-memory buffer (-trace-out streams are unaffected)\n", o.prog, n)
	}
	if path := o.flags.MemProfile; path != "" {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // settle the heap so the profile reflects retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	if path := o.flags.MetricsOut; path != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return fmt.Errorf("metrics-out: %w", err)
		}
	}
	return nil
}

// CloseOps keeps the ops server up for -ops-linger, then closes it. The
// linger is interruptible: Ctrl-C must still reach Close so open
// /trace/tail streams get their clean terminal event instead of dying
// with the process.
func (o *Outputs) CloseOps() error {
	srv := o.ops
	if srv == nil {
		return nil
	}
	o.ops = nil
	if linger := o.flags.OpsLinger; linger > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		fmt.Fprintf(o.stderr, "%s: ops server lingering for %v on %s (Ctrl-C to stop)\n", o.prog, linger, srv.URL())
		select {
		case <-time.After(linger):
		case <-ctx.Done():
			fmt.Fprintf(o.stderr, "%s: interrupted, closing ops server\n", o.prog)
		}
		stop()
	}
	if err := srv.Close(); err != nil {
		return fmt.Errorf("ops-addr: %w", err)
	}
	return nil
}

// Close releases whatever Finish and CloseOps did not, ignoring errors: a
// run that failed has already reported why.
func (o *Outputs) Close() {
	if o.cpuFile != nil {
		pprof.StopCPUProfile()
		o.cpuFile.Close()
	}
	if o.traceFile != nil {
		o.traceFile.Close()
	}
	if o.ops != nil {
		o.ops.Close()
	}
}
