package exact

import (
	"math"
	"testing"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// bruteForce enumerates every mapping and returns the optimal feasible one.
func bruteForce(p *sched.Problem) (best []int, bestE float64, found bool) {
	n := p.Platform.Len()
	m := len(p.Jobs)
	mapping := make([]int, m)
	bestE = math.Inf(1)
	var rec func(k int)
	rec = func(k int) {
		if k == m {
			if p.FeasibleMapping(mapping) {
				if e := p.Energy(mapping); e < bestE {
					bestE = e
					best = append(best[:0], mapping...)
					found = true
				}
			}
			return
		}
		for r := 0; r < n; r++ {
			mapping[k] = r
			rec(k + 1)
		}
	}
	rec(0)
	return best, bestE, found
}

func randomSmallProblem(r *rng.Rand, plat *platform.Platform, set *task.Set) *sched.Problem {
	now := r.Uniform(0, 50)
	n := 1 + r.Intn(4)
	jobs := make([]*sched.Job, 0, n+1)
	for i := 0; i < n; i++ {
		ty := set.Type(r.Intn(set.Len()))
		arr := now - r.Uniform(0, 10)
		j := sched.NewJob(i, ty, arr, r.Uniform(15, 150))
		if j.AbsDeadline <= now {
			j.AbsDeadline = now + r.Uniform(3, 80)
		}
		if r.Float64() < 0.5 {
			j.Resource = r.Intn(plat.Len())
			if r.Float64() < 0.5 {
				j.Started = true
				j.ExecRes = j.Resource
				j.Frac = r.Uniform(0.2, 1)
			}
		}
		jobs = append(jobs, j)
	}
	if r.Float64() < 0.5 {
		ty := set.Type(r.Intn(set.Len()))
		jp := sched.NewJob(n, ty, now+r.Uniform(0, 4), r.Uniform(15, 150))
		jp.Predicted = true
		jobs = append(jobs, jp)
	}
	return &sched.Problem{Platform: plat, Time: now, Jobs: jobs}
}

// wideProblem draws an instance with n free-ish jobs and relative
// deadlines in [dlo, dhi]. Tight deadlines keep the energy-cheapest
// resource (usually the GPU) from holding every job, so the greedy seed is
// suboptimal and the branch-and-bound tree is genuinely wide.
func wideProblem(r *rng.Rand, plat *platform.Platform, set *task.Set, n int, dlo, dhi float64) *sched.Problem {
	now := r.Uniform(0, 50)
	jobs := make([]*sched.Job, 0, n+1)
	for i := 0; i < n; i++ {
		ty := set.Type(r.Intn(set.Len()))
		arr := now - r.Uniform(0, 10)
		j := sched.NewJob(i, ty, arr, r.Uniform(dlo, dhi))
		if j.AbsDeadline <= now {
			j.AbsDeadline = now + r.Uniform(10, dhi)
		}
		if r.Float64() < 0.2 {
			j.Resource = r.Intn(plat.Len())
			if r.Float64() < 0.5 {
				j.Started = true
				j.ExecRes = j.Resource
				j.Frac = r.Uniform(0.2, 1)
			}
		}
		jobs = append(jobs, j)
	}
	if r.Float64() < 0.5 {
		ty := set.Type(r.Intn(set.Len()))
		jp := sched.NewJob(n, ty, now+r.Uniform(0, 4), r.Uniform(dlo, dhi))
		jp.Predicted = true
		jobs = append(jobs, jp)
	}
	return &sched.Problem{Platform: plat, Time: now, Jobs: jobs}
}

// randomWideProblem is the test-sized wide instance: 8-12 jobs under
// contended deadlines, a few hundred branch-and-bound nodes on average.
func randomWideProblem(r *rng.Rand, plat *platform.Platform, set *task.Set) *sched.Problem {
	return wideProblem(r, plat, set, 8+r.Intn(5), 40, 90)
}

// assertSameDecision requires the two decisions to be bit-identical: same
// feasibility, same mapping, and exactly equal energy (==, no tolerance).
func assertSameDecision(t *testing.T, trial int, want, got core.Decision) {
	t.Helper()
	if want.Feasible != got.Feasible {
		t.Fatalf("trial %d: feasible=%v, want %v", trial, got.Feasible, want.Feasible)
	}
	if want.Energy != got.Energy {
		t.Fatalf("trial %d: energy %v, want %v (diff %g)", trial, got.Energy, want.Energy, got.Energy-want.Energy)
	}
	if len(want.Mapping) != len(got.Mapping) {
		t.Fatalf("trial %d: mapping lengths differ", trial)
	}
	for i := range want.Mapping {
		if want.Mapping[i] != got.Mapping[i] {
			t.Fatalf("trial %d: mapping differs at %d: got %v, want %v", trial, i, got.Mapping, want.Mapping)
		}
	}
}

// bruteForceSet is the task set of the brute-force oracle: the
// motivational platform's 3 resources keep full enumeration tractable.
func bruteForceSet(tb testing.TB) (*platform.Platform, *task.Set) {
	tb.Helper()
	plat := platform.Motivational()
	c := task.DefaultGenConfig()
	c.NumTypes = 30
	set, err := task.Generate(plat, c, rng.New(3))
	if err != nil {
		tb.Fatal(err)
	}
	return plat, set
}

// checkBruteForce solves p with o and checks the decision against full
// enumeration: same feasibility, energy within 1e-9, a schedulable
// mapping, a completed search, and never worse than Algorithm 1. It
// reports whether p is feasible.
func checkBruteForce(t *testing.T, trial int, o *Optimal, h *core.Heuristic, p *sched.Problem) bool {
	t.Helper()
	d := o.Solve(p)
	if o.LastStats.Truncated {
		t.Fatalf("trial %d: truncated on a tiny instance", trial)
	}
	_, wantE, found := bruteForce(p)
	if d.Feasible != found {
		t.Fatalf("trial %d: exact feasible=%v, brute force=%v", trial, d.Feasible, found)
	}
	if !found {
		return false
	}
	if math.Abs(d.Energy-wantE) > 1e-9 {
		t.Fatalf("trial %d: exact energy %v != brute force %v", trial, d.Energy, wantE)
	}
	if !p.FeasibleMapping(d.Mapping) {
		t.Fatalf("trial %d: exact mapping not feasible", trial)
	}
	if hd := h.Solve(p); hd.Feasible && d.Energy > hd.Energy+1e-9 {
		t.Fatalf("trial %d: exact %v worse than heuristic %v", trial, d.Energy, hd.Energy)
	}
	return true
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	plat, set := bruteForceSet(t)
	r := rng.New(71)
	o, h := &Optimal{}, &core.Heuristic{}
	agreeFeasible, agreeInfeasible := 0, 0
	for trial := 0; trial < 300; trial++ {
		if checkBruteForce(t, trial, o, h, randomSmallProblem(r, plat, set)) {
			agreeFeasible++
		} else {
			agreeInfeasible++
		}
	}
	if agreeFeasible < 50 {
		t.Fatalf("only %d feasible instances; generator too harsh for a meaningful test", agreeFeasible)
	}
	if agreeInfeasible == 0 {
		t.Log("note: no infeasible instances sampled")
	}
}

// FuzzOptimalMatchesBruteForce is the exact solver's fuzzed oracle: any
// seed draws a small instance on which branch and bound must agree with
// full enumeration. The seed corpus runs as part of go test.
func FuzzOptimalMatchesBruteForce(f *testing.F) {
	f.Add(uint64(71))
	f.Add(uint64(13))
	plat, set := bruteForceSet(f)
	f.Fuzz(func(t *testing.T, seed uint64) {
		p := randomSmallProblem(rng.New(seed), plat, set)
		checkBruteForce(t, 0, &Optimal{}, &core.Heuristic{}, p)
	})
}

// TestTruncatedOnlyWhenCut: a search that finishes in exactly its node
// limit is complete, not truncated, and returns the unlimited decision.
func TestTruncatedOnlyWhenCut(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	full := &Optimal{}
	for trial := 0; trial < 60; trial++ {
		var p *sched.Problem
		if trial%2 == 0 {
			p = randomSmallProblem(r, plat, set)
		} else {
			p = randomWideProblem(r, plat, set)
		}
		want := full.Solve(p)
		if full.LastStats.Truncated {
			t.Fatalf("trial %d: unlimited solve truncated", trial)
		}
		n := full.LastStats.Nodes
		if n == 0 {
			continue // pinned state infeasible: no search ran
		}
		o := &Optimal{NodeLimit: n}
		got := o.Solve(p)
		if o.LastStats.Truncated || o.BudgetUsed().Exhausted {
			t.Fatalf("trial %d: search finished in its %d-node limit but reported truncated", trial, n)
		}
		if o.LastStats.Nodes != n {
			t.Fatalf("trial %d: %d nodes under the limit, %d unlimited", trial, o.LastStats.Nodes, n)
		}
		assertSameDecision(t, trial, want, got)
	}
}

func TestOptimalNeverWorseThanHeuristic(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	h := &core.Heuristic{}
	o := &Optimal{}
	hFeasible, oStrictlyBetter := 0, 0
	for trial := 0; trial < 300; trial++ {
		p := randomSmallProblem(r, plat, set)
		hd := h.Solve(p)
		od := o.Solve(p)
		if hd.Feasible {
			hFeasible++
			if !od.Feasible {
				t.Fatalf("trial %d: heuristic feasible but exact not", trial)
			}
			if od.Energy > hd.Energy+1e-9 {
				t.Fatalf("trial %d: exact %v worse than heuristic %v", trial, od.Energy, hd.Energy)
			}
			if od.Energy < hd.Energy-1e-9 {
				oStrictlyBetter++
			}
		}
	}
	if hFeasible == 0 {
		t.Fatal("no feasible instances")
	}
	if oStrictlyBetter == 0 {
		t.Log("note: exact never strictly improved on the heuristic in this sample")
	}
}

func TestOptimalMotivational(t *testing.T) {
	ts := task.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 8)
	jp := sched.NewJob(1, ts.Type(1), 1, 5)
	jp.Predicted = true
	p := &sched.Problem{
		Platform: platform.Motivational(),
		Time:     0,
		Jobs:     []*sched.Job{j1, jp},
	}
	d := (&Optimal{}).Solve(p)
	if !d.Feasible {
		t.Fatal("scenario (b) must be feasible")
	}
	if d.Mapping[0] != 0 || d.Mapping[1] != 2 {
		t.Fatalf("mapping = %v, want [0 2]", d.Mapping)
	}
	if math.Abs(d.Energy-8.8) > 1e-12 {
		t.Fatalf("energy = %v, want 8.8", d.Energy)
	}
}

func TestOptimalRespectsPinned(t *testing.T) {
	ts := task.Motivational()
	plat := platform.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 50)
	j1.Resource = 2
	j1.Started = true
	j1.ExecRes = j1.Resource
	j1.Frac = 0.5
	p := &sched.Problem{Platform: plat, Time: 2, Jobs: []*sched.Job{j1}}
	d := (&Optimal{}).Solve(p)
	if !d.Feasible || d.Mapping[0] != 2 {
		t.Fatalf("pinned job moved: %+v", d)
	}
}

func TestOptimalInfeasiblePinnedState(t *testing.T) {
	// A pinned job that can no longer meet its deadline: Solve must report
	// infeasible without crashing.
	ts := task.Motivational()
	plat := platform.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 8)
	j1.Resource = 2
	j1.Started = true
	j1.ExecRes = j1.Resource
	j1.Frac = 1
	p := &sched.Problem{Platform: plat, Time: 7, Jobs: []*sched.Job{j1}}
	// 5 time units of GPU work left, deadline at 8, now 7: impossible.
	if d := (&Optimal{}).Solve(p); d.Feasible {
		t.Fatal("infeasible pinned state accepted")
	}
}

func TestOptimalNodeLimitAnytime(t *testing.T) {
	// With a node limit of 1 the search cannot expand, but the heuristic
	// seed must still be returned.
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(23)
	o := &Optimal{NodeLimit: 1}
	h := &core.Heuristic{}
	for trial := 0; trial < 50; trial++ {
		p := randomSmallProblem(r, plat, set)
		hd := h.Solve(p)
		od := o.Solve(p)
		if hd.Feasible && (!od.Feasible || od.Energy > hd.Energy+1e-9) {
			t.Fatalf("trial %d: anytime result worse than seed", trial)
		}
	}
}

func TestOptimalEmptyProblem(t *testing.T) {
	p := &sched.Problem{Platform: platform.Default(), Time: 0}
	d := (&Optimal{}).Solve(p)
	if !d.Feasible || d.Energy != 0 {
		t.Fatalf("empty problem: %+v", d)
	}
}

// TestOptimalBudgetedFallthrough drives the exact solver inside a
// BudgetedSolver chain with a node budget small enough to exhaust
// mid-search: decisions must stay sound (feasible means schedulable),
// exhaustion must be reported, and the chain must fall through to its
// cheaper stage rather than wedge.
func TestOptimalBudgetedFallthrough(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(53)
	o := &Optimal{}
	chain := &core.BudgetedSolver{
		Stages: []core.Stage{
			{Name: "exact", Solver: o},
			{Name: "heuristic", Solver: &core.Heuristic{}},
		},
		Budget: core.Budget{Nodes: 64},
	}
	exhausted := 0
	for trial := 0; trial < 80; trial++ {
		p := randomWideProblem(r, plat, set)
		d := chain.Solve(p)
		if o.BudgetUsed().Exhausted {
			exhausted++
		}
		if d.Feasible && !p.FeasibleMapping(d.Mapping) {
			t.Fatalf("trial %d: chain returned an infeasible mapping as feasible", trial)
		}
	}
	if exhausted == 0 {
		t.Fatal("budget never exhausted: the test exercised nothing")
	}
}

// TestCacheHitsAcrossActivations: re-solving shared state must be answered
// from the cross-activation cache, visibly in telemetry.
func TestCacheHitsAcrossActivations(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	o := &Optimal{}
	o.AttachMetrics(reg)
	r := rng.New(61)
	p := randomWideProblem(r, plat, set)
	d1 := o.Solve(p)
	firstHits := reg.Counter("exact.cache.hits").Value()
	if reg.Counter("exact.cache.misses").Value() == 0 {
		t.Fatal("no probes reached the cache")
	}
	d2 := o.Solve(p)
	assertSameDecision(t, 0, d1, d2)
	hits := reg.Counter("exact.cache.hits").Value()
	if hits <= firstHits {
		t.Fatalf("re-solving an identical activation gained no cache hits (%d -> %d)", firstHits, hits)
	}
	if rate := reg.Gauge("exact.cache.hit_rate").Value(); rate <= 0 || rate > 1 {
		t.Fatalf("hit rate gauge %v outside (0,1]", rate)
	}
}

// TestCacheDisabled: CacheSlots < 0 must bypass the cache entirely and keep
// its instruments silent, and the cache must not change any decision or
// the search itself.
func TestCacheDisabled(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	o := &Optimal{CacheSlots: -1, NodeLimit: 2_000_000}
	o.AttachMetrics(reg)
	cached := &Optimal{NodeLimit: 2_000_000}
	r := rng.New(61)
	for trial := 0; trial < 40; trial++ {
		var p *sched.Problem
		if trial%2 == 0 {
			p = randomSmallProblem(r, plat, set)
		} else {
			p = randomWideProblem(r, plat, set)
		}
		want := cached.Solve(p)
		assertSameDecision(t, trial, want, o.Solve(p))
		if o.LastStats.Nodes != cached.LastStats.Nodes {
			t.Fatalf("trial %d: %d nodes uncached, %d cached", trial, o.LastStats.Nodes, cached.LastStats.Nodes)
		}
	}
	if h, m := reg.Counter("exact.cache.hits").Value(), reg.Counter("exact.cache.misses").Value(); h != 0 || m != 0 {
		t.Fatalf("disabled cache counted probes: hits=%d misses=%d", h, m)
	}
}

func BenchmarkOptimalSolve(b *testing.B) {
	plat := platform.Default()
	set, _ := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	r := rng.New(13)
	problems := make([]*sched.Problem, 64)
	for i := range problems {
		problems[i] = randomSmallProblem(r, plat, set)
	}
	o := &Optimal{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Solve(problems[i%len(problems)])
	}
}

func BenchmarkHeuristicSolve(b *testing.B) {
	plat := platform.Default()
	set, _ := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	r := rng.New(13)
	problems := make([]*sched.Problem, 64)
	for i := range problems {
		problems[i] = randomSmallProblem(r, plat, set)
	}
	h := &core.Heuristic{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Solve(problems[i%len(problems)])
	}
}
