// Command perfbench is predrm's end-to-end benchmark. It drives the
// resource manager through its public entry points (engine.New and
// Activate/ActivateEpoch/Drain/Finalize, engine.NewSharded, serve.New over
// loopback, sched.Problem methods) on four workloads and prints, as its
// last line, one JSON object with the run's correctness, request counts
// and metrics. A plain run (--trace 0) prints the end-to-end metrics; a
// traced run (--trace 1) prints the per-layer metrics measured by timing
// decorators around each layer's calls. README.md documents every metric.
//
//	bash perfbench/run.sh --workload vt-heuristic --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// setupReps is how many times a run builds its inputs and engine; the
// reported set-up time is the median.
const setupReps = 21

// maxProcs bounds the benchmark to two threads of Go code, the size of
// the machine the benchmark was tuned on.
const maxProcs = 2

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	root     string
	commit   string
}

// workload is one named benchmark workload.
type workload interface {
	run(o options) (*report, error)
}

func workloads() map[string]workload {
	m := map[string]workload{"serve-open": serveOpen{}}
	for _, w := range simWorkloads {
		m[w.name] = w
	}
	return m
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed builds the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run printing the per-layer metrics; 0: plain run printing the end-to-end metrics")
	flag.StringVar(&o.root, "root", ".", "root of the predrm checkout (fixtures are read from it, spans written under .bench_build/)")
	flag.StringVar(&o.commit, "commit", "unknown", "commit of the measured sources, recorded with the result")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.traced = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be positive\n")
		return 2
	}
	w, ok := workloads()[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}

	rep, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	res, err := rep.result(o.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if rep.log != nil {
		path := filepath.Join(o.root, ".bench_build", "spans", o.workload+".jsonl")
		if err := rep.log.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (%d beyond the cap not kept)\n",
			len(rep.log.spans), path, rep.log.dropped)
	}
	env, err := json.Marshal(environment(o))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", env, line)
	return 0
}

func workloadNames() []string {
	var names []string
	for name := range workloads() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runEnv is the machine and build a result was measured on.
type runEnv struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Commit     string  `json:"commit"`
}

func environment(o options) map[string]runEnv {
	return map[string]runEnv{"env": {
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.traced,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Commit:     o.commit,
	}}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// the file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}
