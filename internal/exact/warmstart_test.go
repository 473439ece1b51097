package exact

import (
	"fmt"
	"slices"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// evolveActivation builds the successor activation of p under mapping:
// mapped jobs execute (a few to completion), predicted jobs are discarded
// (a forecast is re-decided every time), and a couple of fresh arrivals
// join. Surviving *Job pointers carry over — the identity the warm state
// matches on.
func evolveActivation(r *rng.Rand, p *sched.Problem, mapping []int, set *task.Set, nextID *int) *sched.Problem {
	now := p.Time + r.Uniform(0.5, 2)
	jobs := make([]*sched.Job, 0, len(p.Jobs)+2)
	for i, j := range p.Jobs {
		if j.Predicted || mapping[i] == sched.Unmapped {
			continue
		}
		j.Resource = mapping[i]
		if r.Float64() < 0.2 {
			continue // completed since the previous activation
		}
		if r.Float64() < 0.6 {
			j.Started = true
			j.ExecRes = j.Resource
			j.Frac *= r.Uniform(0.5, 1)
		}
		if j.AbsDeadline <= now+sched.Eps {
			continue
		}
		jobs = append(jobs, j)
	}
	for k := r.Intn(3); k > 0; k-- {
		ty := set.Type(r.Intn(set.Len()))
		jobs = append(jobs, sched.NewJob(*nextID, ty, now, r.Uniform(40, 120)))
		*nextID++
	}
	if r.Float64() < 0.5 {
		ty := set.Type(r.Intn(set.Len()))
		jp := sched.NewJob(*nextID, ty, now+r.Uniform(0, 4), r.Uniform(40, 120))
		jp.Predicted = true
		*nextID++
		jobs = append(jobs, jp)
	}
	return &sched.Problem{Platform: p.Platform, Time: now, Jobs: jobs}
}

// runWarmColdSequences drives random activation sequences through a
// warm-started and a cold solver and requires bit-identical decisions on
// every completed solve. It returns how many solves the warm solver
// actually seeded and how many nodes its bound cut, so callers can insist
// the warm path was genuinely exercised rather than vacuously agreeing.
func runWarmColdSequences(t *testing.T, warm, cold *Optimal, seed uint64, trials int) (seeded, cuts int) {
	t.Helper()
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	for trial := 0; trial < trials; trial++ {
		p := randomWideProblem(r, plat, set)
		nextID := 1000
		for step := 0; step < 5; step++ {
			cd := cold.Solve(p)
			if cold.LastStats.Truncated {
				break // anytime regime: no determinism claim
			}
			wd := warm.Solve(p)
			if warm.LastStats.Truncated {
				t.Fatalf("trial %d step %d: warm truncated where cold completed", trial, step)
			}
			if warm.LastStats.WarmSeeded {
				seeded++
				cuts += warm.LastStats.WarmCuts
			}
			assertSameDecision(t, trial*10+step, cd, wd)
			if !cd.Feasible {
				break
			}
			p = evolveActivation(r, p, cd.Mapping, set, &nextID)
		}
	}
	return seeded, cuts
}

// TestWarmStartMatchesColdSerial is the tentpole soundness contract
// (DESIGN.md §10): across consecutive activations, the warm-started exact
// solver must return bit-identical decisions to a cold solver — same
// feasibility, same mapping, exactly equal energy — while actually seeding
// and pruning.
func TestWarmStartMatchesColdSerial(t *testing.T) {
	warm := &Optimal{NodeLimit: 2_000_000, WarmStart: true}
	cold := &Optimal{NodeLimit: 2_000_000}
	seeded, cuts := runWarmColdSequences(t, warm, cold, 909, 40)
	if seeded == 0 {
		t.Fatal("warm solver never seeded a bound; the differential test is vacuous")
	}
	t.Logf("seeded %d warm solves, %d warm-only cuts", seeded, cuts)
}

// TestWarmStartMatchesColdParallel repeats the differential check with
// several warm/cold solver pairs running concurrently: warm state, cache
// and scratch belong to one Optimal, so independent solvers in parallel
// goroutines must not perturb each other's decisions.
func TestWarmStartMatchesColdParallel(t *testing.T) {
	for _, seed := range []uint64{334, 337, 341, 347} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			warm := &Optimal{NodeLimit: 2_000_000, WarmStart: true}
			cold := &Optimal{NodeLimit: 2_000_000}
			if seeded, _ := runWarmColdSequences(t, warm, cold, seed, 12); seeded == 0 {
				t.Fatal("warm solver never seeded a bound")
			}
		})
	}
}

// TestWarmStartAgainstSerialCold crosses the configurations: a warm solver
// with the feasibility cache disabled against a cold one with the default
// cache, so a warm-bound bug that happened to be cache-symmetric would
// still be caught.
func TestWarmStartAgainstSerialCold(t *testing.T) {
	warm := &Optimal{NodeLimit: 2_000_000, WarmStart: true, CacheSlots: -1}
	cold := &Optimal{NodeLimit: 2_000_000}
	if seeded, _ := runWarmColdSequences(t, warm, cold, 4242, 25); seeded == 0 {
		t.Fatal("warm solver never seeded a bound")
	}
}

// TestWarmStartOffRecordsNothing: with WarmStart unset the solver must
// behave exactly as before the feature existed — no recording, no
// seeding, zero-value stats — so existing golden traces remain valid.
func TestWarmStartOffRecordsNothing(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	o := &Optimal{NodeLimit: 2_000_000}
	for trial := 0; trial < 10; trial++ {
		p := randomWideProblem(r, plat, set)
		o.Solve(p)
		if o.LastStats.WarmSeeded || o.LastStats.WarmCuts != 0 {
			t.Fatalf("trial %d: WarmStart=false solver reported warm activity: %+v", trial, o.LastStats)
		}
		if o.prev != nil {
			t.Fatalf("trial %d: WarmStart=false solver recorded warm state", trial)
		}
	}
}

// warmCounters reads the exact.warmstart attempt, seeded and
// repair_fail counters.
func warmCounters(reg *telemetry.Registry) (attempts, seeded, fails int64) {
	c := reg.Snapshot().Counters
	return c["exact.warmstart.attempts"], c["exact.warmstart.seeded"], c["exact.warmstart.repair_fail"]
}

// TestWarmStartFirstSolveSeedsNoBound: with nothing recorded there is no
// previous mapping to extend, so the first solve installs no bound and
// counts no attempt; the successor of a recorded solve is seeded.
func TestWarmStartFirstSolveSeedsNoBound(t *testing.T) {
	ts := task.Motivational()
	plat := platform.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 50)
	p := &sched.Problem{Platform: plat, Time: 0, Jobs: []*sched.Job{j1}}
	reg := telemetry.NewRegistry()
	o := &Optimal{WarmStart: true}
	o.AttachMetrics(reg)
	if d := o.Solve(p); !d.Feasible || o.LastStats.WarmSeeded {
		t.Fatalf("first solve: feasible=%v stats=%+v", d.Feasible, o.LastStats)
	}
	if a, s, f := warmCounters(reg); a != 0 || s != 0 || f != 0 {
		t.Fatalf("first solve counted attempts=%d seeded=%d fails=%d", a, s, f)
	}
	o.Solve(p)
	if !o.LastStats.WarmSeeded {
		t.Fatalf("repeat solve not seeded: %+v", o.LastStats)
	}
	if a, s, f := warmCounters(reg); a != 1 || s != 1 || f != 0 {
		t.Fatalf("repeat solve counted attempts=%d seeded=%d fails=%d", a, s, f)
	}
}

// TestWarmStartDeltaGuard: when the activation delta exceeds
// maxWarmDelta, retention covers too little of the problem, and the solve
// seeds no bound and counts the attempt as a repair failure.
func TestWarmStartDeltaGuard(t *testing.T) {
	ts := task.Motivational()
	plat := platform.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 50)
	p1 := &sched.Problem{Platform: plat, Time: 0, Jobs: []*sched.Job{j1}}
	reg := telemetry.NewRegistry()
	o := &Optimal{WarmStart: true}
	o.AttachMetrics(reg)
	if d := o.Solve(p1); !d.Feasible {
		t.Fatal("seed activation infeasible")
	}

	// Successor keeps j1 and adds five arrivals: delta 5 > maxWarmDelta(6)=4.
	jobs := []*sched.Job{j1}
	for i := 1; i <= 5; i++ {
		jobs = append(jobs, sched.NewJob(i, ts.Type(0), 1, 50))
	}
	o.Solve(&sched.Problem{Platform: plat, Time: 1, Jobs: jobs})
	if o.LastStats.WarmSeeded {
		t.Fatal("warm bound seeded past the delta guard")
	}
	if a, s, f := warmCounters(reg); a != 1 || s != 0 || f != 1 {
		t.Fatalf("guarded solve counted attempts=%d seeded=%d fails=%d", a, s, f)
	}

	if got, want := maxWarmDelta(4), 4; got != want {
		t.Fatalf("maxWarmDelta(4) = %d, want %d", got, want)
	}
	if got, want := maxWarmDelta(20), 10; got != want {
		t.Fatalf("maxWarmDelta(20) = %d, want %d", got, want)
	}
}

func warmProblem() *sched.Problem {
	ts := task.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 8)
	j2 := sched.NewJob(1, ts.Type(1), 0, 6)
	return &sched.Problem{Platform: platform.Motivational(), Time: 0, Jobs: []*sched.Job{j1, j2}}
}

// preBookOf runs o.preBook on p and returns its pre-bookings and verdict.
func preBookOf(o *Optimal, p *sched.Problem) ([]int, bool) {
	ok := o.preBook(p)
	return slices.Clone(o.keep), ok
}

// TestWarmStartRecordPreBook: a recorded mapping pre-books every job of
// the same problem where it was, and a successor's pre-bookings keep the
// surviving job and leave the arrival free.
func TestWarmStartRecordPreBook(t *testing.T) {
	p := warmProblem()
	o := &Optimal{WarmStart: true}
	o.record(p, []int{2, 0})
	if keep, ok := preBookOf(o, p); !ok || !slices.Equal(keep, []int{2, 0}) {
		t.Fatalf("self pre-bookings = %v, %v", keep, ok)
	}

	// Next activation: job 0 survives, job 1 completed, one arrival.
	ts := task.Motivational()
	j3 := sched.NewJob(2, ts.Type(1), 1, 6)
	next := &sched.Problem{Platform: p.Platform, Time: 1, Jobs: []*sched.Job{p.Jobs[0], j3}}
	if keep, ok := preBookOf(o, next); !ok || !slices.Equal(keep, []int{2, sched.Unmapped}) {
		t.Fatalf("successor pre-bookings = %v, %v", keep, ok)
	}
}

// TestWarmStartMatchesByPointerNotValue: the simulator mutates *Job in
// place, so pointer identity is the cross-activation job identity; a
// value-identical clone (a rebuilt predicted job, say) is not pre-booked.
func TestWarmStartMatchesByPointerNotValue(t *testing.T) {
	p := warmProblem()
	o := &Optimal{WarmStart: true}
	o.record(p, []int{2, 0})
	clone := p.Jobs[0].Clone()
	next := &sched.Problem{Platform: p.Platform, Time: p.Time, Jobs: []*sched.Job{clone, p.Jobs[1]}}
	if keep, _ := preBookOf(o, next); !slices.Equal(keep, []int{sched.Unmapped, 0}) {
		t.Fatalf("clone pre-bookings = %v (clone must not match by value)", keep)
	}
}

// TestWarmStartRecordSkipsUnmapped: a job the previous solve did not
// place (a rejected prediction) carries no assignment worth keeping and
// is not recorded.
func TestWarmStartRecordSkipsUnmapped(t *testing.T) {
	p := warmProblem()
	o := &Optimal{WarmStart: true}
	o.record(p, []int{2, sched.Unmapped})
	if len(o.prev) != 1 {
		t.Fatalf("recorded %d jobs, want 1", len(o.prev))
	}
	if keep, _ := preBookOf(o, p); !slices.Equal(keep, []int{2, sched.Unmapped}) {
		t.Fatalf("pre-bookings = %v (unmapped job must stay free)", keep)
	}
}

// BenchmarkOptimalWarmStart measures the node-count payoff of the warm
// bound on a steady-state activation: the warm solver re-solves the same
// successor over and over (delta zero after its first solve — the best
// case, analogous to the repeated AdmitProv solves within one
// activation), the cold solver starts from scratch each time.
func BenchmarkOptimalWarmStart(b *testing.B) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(29)
	var p1, p2 *sched.Problem
	bestSaved, bestCold := 0, 0
	probe := &Optimal{}
	for attempt := 0; attempt < 400; attempt++ {
		cand := wideProblem(r, plat, set, 12, 30, 70)
		d := probe.Solve(cand)
		if !d.Feasible || probe.LastStats.Truncated {
			continue
		}
		nextID := 1000
		succ := evolveActivation(r, cand, d.Mapping, set, &nextID)
		d2 := probe.Solve(succ)
		if !d2.Feasible || probe.LastStats.Truncated {
			continue
		}
		coldNodes := probe.LastStats.Nodes
		wp := &Optimal{WarmStart: true}
		wp.Solve(cand)
		wp.Solve(succ)
		// Prefer the pair where the warm bound actually cuts: the payoff
		// case is a successor whose heuristic incumbent is weak, so the
		// previous activation's extended solution out-prunes it.
		if saved := coldNodes - wp.LastStats.Nodes; wp.LastStats.WarmSeeded && saved > bestSaved {
			bestSaved, bestCold = saved, coldNodes
			p1, p2 = cand, succ
		}
	}
	if p2 == nil {
		b.Fatal("no steady-state pair where the warm bound cuts nodes")
	}
	b.Logf("successor tree: %d nodes cold, %d saved warm", bestCold, bestSaved)

	b.Run("cold", func(b *testing.B) {
		o := &Optimal{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Solve(p2)
		}
	})

	b.Run("warm", func(b *testing.B) {
		o := &Optimal{WarmStart: true}
		o.Solve(p1) // record the previous activation
		if d := o.Solve(p2); !d.Feasible || !o.LastStats.WarmSeeded {
			b.Fatalf("warm solve not seeded on the steady-state pair: %+v", o.LastStats)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Solve(p2)
		}
	})
}
