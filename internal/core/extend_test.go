package core

import (
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
)

// nextActivation advances p to its successor activation: the given mapping
// is applied, each mapped job executes for a while (some to completion),
// predicted jobs are discarded (a forecast is re-decided every time), and
// addN fresh arrivals join. Surviving *Job pointers are carried over.
func nextActivation(r *rng.Rand, p *sched.Problem, mapping []int, set *task.Set, nextID *int, addN int) *sched.Problem {
	now := p.Time + r.Uniform(0.5, 2)
	jobs := make([]*sched.Job, 0, len(p.Jobs)+addN)
	for i, j := range p.Jobs {
		if j.Predicted || mapping[i] == sched.Unmapped {
			continue
		}
		j.Resource = mapping[i]
		if r.Float64() < 0.3 {
			continue // completed since the previous activation
		}
		if r.Float64() < 0.7 {
			j.Started = true
			j.ExecRes = j.Resource
			j.Frac *= r.Uniform(0.4, 1)
		}
		if j.AbsDeadline <= now+sched.Eps {
			continue // expired; the simulator would have dropped it
		}
		jobs = append(jobs, j)
	}
	for k := 0; k < addN; k++ {
		ty := set.Type(r.Intn(set.Len()))
		jobs = append(jobs, sched.NewJob(*nextID, ty, now, r.Uniform(20, 120)))
		*nextID++
	}
	return &sched.Problem{Platform: p.Platform, Time: now, Jobs: jobs}
}

// checkExtend runs Extend on p with the given pre-bookings and requires an
// ok mapping to pass the independent feasibility check and to keep every
// pre-booked free job where keep put it. It reports whether Extend
// succeeded.
func checkExtend(t *testing.T, h *Heuristic, p *sched.Problem, keep []int) bool {
	t.Helper()
	m, ok := h.Extend(p, keep)
	if !ok {
		return false
	}
	if !p.FeasibleMapping(m) {
		t.Fatalf("extended mapping %v (keep %v) not feasible", m, keep)
	}
	for i, j := range p.Jobs {
		if keep[i] != sched.Unmapped && !j.Fixed && !j.Pinned(p.Platform) && m[i] != keep[i] {
			t.Fatalf("pre-booked job %d moved %d -> %d", i, keep[i], m[i])
		}
	}
	return true
}

// TestExtendProducesFeasibleMappings: over random activation sequences,
// extending the previous activation's mapping (surviving jobs pre-booked
// where they were) must hand back only feasible mappings that keep every
// pre-booked free job in place.
func TestExtendProducesFeasibleMappings(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	extended, attempted := 0, 0
	for trial := 0; trial < 150; trial++ {
		h := &Heuristic{Cache: sched.NewFeasCache(0)}
		p := randomProblem(r, plat, set)
		nextID := 1000
		for step := 0; step < 5; step++ {
			d := h.Solve(p)
			if !d.Feasible {
				break
			}
			prev := make(map[*sched.Job]int, len(p.Jobs))
			for i, j := range p.Jobs {
				prev[j] = d.Mapping[i]
			}
			p = nextActivation(r, p, d.Mapping, set, &nextID, r.Intn(3))
			keep := make([]int, len(p.Jobs))
			for i, j := range p.Jobs {
				if res, ok := prev[j]; ok {
					keep[i] = res
				} else {
					keep[i] = sched.Unmapped
				}
			}
			attempted++
			if checkExtend(t, h, p, keep) {
				extended++
			}
		}
	}
	if extended == 0 {
		t.Fatalf("no extension succeeded in %d attempts; sequence generator too harsh", attempted)
	}
	t.Logf("extended %d/%d consecutive activations", extended, attempted)
}

// TestExtendWithoutPreBookingsMatchesSolve: with nothing pre-booked,
// Extend is Solve's plain path — the same mapping, borrowed instead of
// copied — whenever the pinned work passes its own probe.
func TestExtendWithoutPreBookingsMatchesSolve(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(23)
	h := &Heuristic{}
	same := 0
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(r, plat, set)
		d := h.Solve(p)
		keep := make([]int, len(p.Jobs))
		for i := range keep {
			keep[i] = sched.Unmapped
		}
		m, ok := h.Extend(p, keep)
		if ok && !d.Feasible {
			t.Fatalf("trial %d: Extend succeeded where Solve failed", trial)
		}
		if !ok {
			continue
		}
		for i := range m {
			if m[i] != d.Mapping[i] {
				t.Fatalf("trial %d: Extend %v != Solve %v", trial, m, d.Mapping)
			}
		}
		same++
	}
	if same == 0 {
		t.Fatal("no trial compared; generator too harsh")
	}
}

// TestExtendRetainedDeadlineMiss: a pre-booking that no longer fits its
// deadline (the job aged past it without completing) must fail the
// extension rather than hand back an infeasible mapping.
func TestExtendRetainedDeadlineMiss(t *testing.T) {
	ts := task.Motivational()
	plat := platform.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 8)
	p1 := &sched.Problem{Platform: plat, Time: 0, Jobs: []*sched.Job{j1}}
	h := &Heuristic{}
	d := h.Solve(p1)
	if !d.Feasible {
		t.Fatal("seed activation infeasible")
	}
	p2 := &sched.Problem{Platform: plat, Time: j1.AbsDeadline + 1, Jobs: []*sched.Job{j1}}
	if _, ok := h.Extend(p2, d.Mapping); ok {
		t.Fatal("Extend kept a pre-booking past its deadline")
	}
	if _, ok := h.Extend(p1, d.Mapping); !ok {
		t.Fatal("Extend refused the mapping Solve just returned")
	}
}

// FuzzHeuristicFeasible is the heuristic's fuzzed oracle: any seed draws
// a random activation on which a mapping Solve admits, and a mapping
// Extend returns for a random set of pre-bookings, must pass the
// independent Problem.FeasibleMapping check. The seed corpus runs as
// part of go test.
func FuzzHeuristicFeasible(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233} {
		f.Add(seed)
	}
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(2))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		p := randomProblem(r, plat, set)
		h := &Heuristic{Greedy: r.Float64() < 0.25}
		if d := h.Solve(p); d.Feasible && !p.FeasibleMapping(d.Mapping) {
			t.Fatalf("Solve admitted infeasible mapping %v", d.Mapping)
		}
		keep := make([]int, len(p.Jobs))
		for i := range keep {
			keep[i] = sched.Unmapped
			if r.Float64() < 0.5 {
				keep[i] = r.Intn(plat.Len())
			}
		}
		checkExtend(t, h, p, keep)
	})
}
