package main

import (
	"regexp"
	"strings"
	"testing"
)

func i64(v int64) *int64 { return &v }

func TestParseBench(t *testing.T) {
	b, ok := parseBench("predrm/internal/exact",
		"BenchmarkHeuristicSolve-8   	 2203842	       542.4 ns/op	      25 B/op	       1 allocs/op")
	if !ok {
		t.Fatal("line not recognised")
	}
	if b.Name != "HeuristicSolve" || b.Pkg != "predrm/internal/exact" {
		t.Fatalf("parsed %+v", b)
	}
	if b.NsPerOp != 542.4 || *b.BytesPerOp != 25 || *b.AllocsPerOp != 1 {
		t.Fatalf("parsed metrics %+v", b)
	}
	if _, ok := parseBench("p", "ok  	predrm	0.1s"); ok {
		t.Fatal("non-benchmark line accepted")
	}
	if b, ok := parseBench("p", "BenchmarkResourceFeasible/preemptable-future-8 	 100 	 358.2 ns/op"); !ok || b.Name != "ResourceFeasible/preemptable-future" {
		t.Fatalf("sub-benchmark parsed as %+v ok=%v", b, ok)
	}
}

func TestCompareGate(t *testing.T) {
	hot := regexp.MustCompile(defaultHot)
	base := []Benchmark{
		{Pkg: "p", Name: "HeuristicSolve", NsPerOp: 500, AllocsPerOp: i64(1)},
		{Pkg: "p", Name: "ResourceFeasible/preemptable-allready", NsPerOp: 70, AllocsPerOp: i64(0)},
		{Pkg: "p", Name: "Fig2a", NsPerOp: 1000, AllocsPerOp: i64(9)},
	}

	t.Run("within-budget", func(t *testing.T) {
		cur := []Benchmark{
			{Pkg: "p", Name: "HeuristicSolve", NsPerOp: 560, AllocsPerOp: i64(1)}, // +12% < +15%
			{Pkg: "p", Name: "ResourceFeasible/preemptable-allready", NsPerOp: 69, AllocsPerOp: i64(0)},
		}
		regs, compared, fresh, missing := compare(base, cur, hot, 0.15)
		if len(regs) != 0 || compared != 2 || len(fresh) != 0 || len(missing) != 0 {
			t.Fatalf("regs=%v compared=%d fresh=%v missing=%v", regs, compared, fresh, missing)
		}
	})

	t.Run("ns-regression", func(t *testing.T) {
		cur := []Benchmark{{Pkg: "p", Name: "HeuristicSolve", NsPerOp: 600, AllocsPerOp: i64(1)}} // +20%
		regs, _, _, _ := compare(base, cur, hot, 0.15)
		if len(regs) != 1 || !strings.Contains(regs[0], "ns/op") {
			t.Fatalf("regs=%v", regs)
		}
	})

	t.Run("alloc-regression", func(t *testing.T) {
		cur := []Benchmark{{Pkg: "p", Name: "HeuristicSolve", NsPerOp: 500, AllocsPerOp: i64(2)}}
		regs, _, _, _ := compare(base, cur, hot, 0.15)
		if len(regs) != 1 || !strings.Contains(regs[0], "allocs/op") {
			t.Fatalf("regs=%v", regs)
		}
	})

	t.Run("cold-benchmarks-ignored", func(t *testing.T) {
		cur := []Benchmark{
			{Pkg: "p", Name: "Fig2a", NsPerOp: 5000, AllocsPerOp: i64(90)}, // not hot
			{Pkg: "p", Name: "HeuristicSolve", NsPerOp: 500, AllocsPerOp: i64(1)},
			{Pkg: "p", Name: "ResourceFeasible/preemptable-allready", NsPerOp: 69, AllocsPerOp: i64(0)},
		}
		regs, compared, fresh, missing := compare(base, cur, hot, 0.15)
		if len(regs) != 0 || compared != 2 || len(fresh) != 0 || len(missing) != 0 {
			t.Fatalf("regs=%v compared=%d fresh=%v missing=%v", regs, compared, fresh, missing)
		}
	})

	t.Run("baseline-only-hot-benchmarks-reported-missing", func(t *testing.T) {
		// A hot benchmark in the baseline but absent from the run must not
		// regress the gate (a package-subset run legitimately skips some),
		// but it must be surfaced so a silently dropped or renamed hot
		// benchmark does not evade the gate forever. Cold baseline-only
		// benchmarks (Fig2a) stay out of the missing list entirely.
		cur := []Benchmark{{Pkg: "p", Name: "HeuristicSolve", NsPerOp: 500, AllocsPerOp: i64(1)}}
		regs, compared, fresh, missing := compare(base, cur, hot, 0.15)
		if len(regs) != 0 || compared != 1 || len(fresh) != 0 {
			t.Fatalf("regs=%v compared=%d fresh=%v", regs, compared, fresh)
		}
		if len(missing) != 1 || missing[0] != "p.ResourceFeasible/preemptable-allready" {
			t.Fatalf("missing=%v", missing)
		}
	})

	t.Run("new-hot-benchmark-passes", func(t *testing.T) {
		// A hot benchmark absent from the baseline — e.g. a freshly added
		// OptimalWarmStart case — must be reported as new, not gated,
		// even when it would trivially "regress" against nothing.
		cur := []Benchmark{{Pkg: "p", Name: "OptimalWarmStart/warm", NsPerOp: 1e9, AllocsPerOp: i64(99)}}
		regs, compared, fresh, _ := compare(base, cur, hot, 0.15)
		if len(regs) != 0 || compared != 0 {
			t.Fatalf("regs=%v compared=%d", regs, compared)
		}
		if len(fresh) != 1 || fresh[0] != "p.OptimalWarmStart/warm" {
			t.Fatalf("fresh=%v", fresh)
		}
	})

	t.Run("multi-worker-parallel-not-gated", func(t *testing.T) {
		// Multi-worker timings (concurrent shard solves) are
		// goroutine-scheduling noise on small machines; they stay out of
		// the hot set.
		cur := []Benchmark{{Pkg: "p", Name: "ShardedRun/64c8g-x8", NsPerOp: 1e9, AllocsPerOp: i64(99)}}
		regs, compared, fresh, _ := compare(base, cur, hot, 0.15)
		if len(regs) != 0 || compared != 0 || len(fresh) != 0 {
			t.Fatalf("regs=%v compared=%d fresh=%v", regs, compared, fresh)
		}
	})

	t.Run("missing-benchmem-tolerated", func(t *testing.T) {
		cur := []Benchmark{{Pkg: "p", Name: "HeuristicSolve", NsPerOp: 510}}
		regs, compared, _, _ := compare(base, cur, hot, 0.15)
		if len(regs) != 0 || compared != 1 {
			t.Fatalf("regs=%v compared=%d", regs, compared)
		}
	})

	t.Run("warmstart-benchmarks-are-hot", func(t *testing.T) {
		// The warm-start benchmark gates the exact solver's warm bound; it
		// must be inside the default hot set including sub-benchmarks.
		for _, name := range []string{"OptimalWarmStart", "OptimalWarmStart/warm"} {
			if !hot.MatchString(name) {
				t.Fatalf("%s not matched by defaultHot", name)
			}
		}
	})
}
