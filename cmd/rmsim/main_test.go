package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// solverLatency and wallNS are the two measured, machine-dependent
// outputs; the goldens hold them masked.
var (
	solverLatency = regexp.MustCompile(`(?m)^solver latency:.*$`)
	wallNS        = regexp.MustCompile(`"wall_ns":\d+`)
)

// TestRunGolden drives rmsim in-process and compares the exit status and
// stdout with testdata/<name>.golden, recorded from the rmsim binary
// before its flag handling moved into internal/rmconf. The JSONL event
// stream of the provenance row is compared too, gzip-compressed.
func TestRunGolden(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	for _, c := range []struct {
		name string
		args string
	}{
		{"default", "-len 200 -seed 3"},
		{"milp-provenance", "-engine milp -predict -len 120 -seed 7 -trace-out " + events + " -provenance"},
		{"greedy-cold-verbose", "-engine greedy -warmstart=false -predict -accuracy 0.5 -time-error 0.3 -overhead 0.05 -len 150 -seed 4 -v"},
		{"sharded-budget", "-platform 16c2g -shards 2 -batch-window 1 -solver-budget 20000 -len 300 -seed 5"},
		{"fault-plan", "-solver-budget 5000 -fault-plan seed=7,solver-error=0.2,latency-rate=0.1,latency=0.5 -engine milp -len 150"},
		{"scale-fixture", "-taskset ../../testdata/scale/taskset.json -trace ../../testdata/scale/trace-VT-000.json -shards 2 -batch-window 1"},
		{"gantt", "-gantt 40 -len 60 -work-conserving"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(strings.Fields(c.args), &stdout, &stderr)
			got := "exit " + strconv.Itoa(code) + "\n" +
				solverLatency.ReplaceAllString(stdout.String(), "solver latency:   (masked)")
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("stdout differs from the golden\n--- got\n%s--- want\n%s--- stderr\n%s", got, want, stderr.String())
			}
		})
	}

	stream, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join("testdata", "milp-provenance.jsonl.golden.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if got := wallNS.ReplaceAll(stream, []byte(`"wall_ns":0`)); !bytes.Equal(got, want) {
		t.Errorf("event stream differs from the golden (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRunRefusals: each refused command line exits 1 with nothing on
// stdout and names the offending flag or value on stderr. The non-finite
// rows matter because NaN passes every "x <= 0"-style range check.
func TestRunRefusals(t *testing.T) {
	for _, c := range []struct {
		args, names string
	}{
		{"-shards 2 -predict", "-predict"},
		{"-taskset ../../testdata/scale/taskset.json -platform 8c1g", "-platform"},
		{"-accuracy 0.5", "-accuracy"},
		{"-solver-budget abc", "-solver-budget"},
		{"-ops-linger 1s", "-ops-linger"},
		{"-provenance", "-provenance"},
		{"-engine foo", `"foo"`},
		{"-group XX", `"XX"`},
		{"-interarrival NaN -len 50", "-interarrival"},
		{"-batch-window NaN", "-batch-window"},
		{"-predict -accuracy NaN", "-accuracy"},
		{"-predict -time-error NaN", "-time-error"},
		{"-predict -overhead NaN", "-overhead"},
		{"-interarrival +Inf", "-interarrival"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(c.args), &stdout, &stderr)
		if code != 1 || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.names) {
			t.Errorf("rmsim %s: exit %d, stdout %q, stderr %q; want exit 1, no stdout, stderr naming %s",
				c.args, code, stdout.String(), stderr.String(), c.names)
		}
	}
}
