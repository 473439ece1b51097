package exact

import (
	"testing"
	"time"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
)

func TestOptimalBudgetAware(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	h := &core.Heuristic{}
	full := &Optimal{}
	var o core.BudgetAware = &Optimal{}

	// A one-node budget cuts every search that needs more than the root,
	// but the anytime incumbent (the heuristic seed) must survive the cut,
	// and a search that finishes within the budget must be reported
	// complete and return the unbudgeted decision. Small instances mostly
	// finish at the root; wide ones mostly need more.
	const limit = 1
	o.ApplyBudget(core.Budget{Nodes: limit})
	exhausted, finished := 0, 0
	for trial := 0; trial < 60; trial++ {
		var p *sched.Problem
		if trial < 30 {
			p = randomSmallProblem(r, plat, set)
		} else {
			p = randomWideProblem(r, plat, set)
		}
		hd := h.Solve(p)
		want := full.Solve(p)
		od := o.Solve(p)
		if hd.Feasible && (!od.Feasible || od.Energy > hd.Energy+1e-9) {
			t.Fatalf("trial %d: budgeted result worse than seed", trial)
		}
		use := o.BudgetUsed()
		if use.Nodes > limit {
			t.Fatalf("trial %d: expanded %d nodes under a %d-node budget", trial, use.Nodes, limit)
		}
		if cut := full.LastStats.Nodes > limit; use.Exhausted != cut {
			t.Fatalf("trial %d: exhausted=%v, but the unbudgeted search took %d node(s)",
				trial, use.Exhausted, full.LastStats.Nodes)
		}
		if use.Exhausted {
			exhausted++
			if use.Nodes != limit {
				t.Fatalf("trial %d: exhausted after %d of %d node(s)", trial, use.Nodes, limit)
			}
			continue
		}
		finished++
		assertSameDecision(t, trial, want, od)
	}
	if exhausted == 0 || finished == 0 {
		t.Fatalf("%d exhausted, %d finished solves: the test needs both", exhausted, finished)
	}

	// Clearing the budget restores the default limit: a small problem
	// should then complete without truncation.
	o.ApplyBudget(core.Budget{})
	p := randomSmallProblem(r, plat, set)
	o.Solve(p)
	if o.BudgetUsed().Exhausted {
		t.Fatal("unbudgeted small solve reported exhaustion")
	}
}

func TestOptimalWallBudget(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(47)
	h := &core.Heuristic{}
	o := &Optimal{}
	// A generous wall budget on tiny problems must not perturb results.
	o.ApplyBudget(core.Budget{Wall: time.Minute})
	for trial := 0; trial < 10; trial++ {
		p := randomSmallProblem(r, plat, set)
		hd := h.Solve(p)
		od := o.Solve(p)
		if hd.Feasible && (!od.Feasible || od.Energy > hd.Energy+1e-9) {
			t.Fatalf("trial %d: wall-budgeted result worse than seed", trial)
		}
	}
}
