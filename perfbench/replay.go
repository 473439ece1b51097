package main

import (
	"time"

	"predrm/internal/sched"
)

// replayBudget is the minimum time spent timing each sched kernel.
const replayBudget = 200 * time.Millisecond

// replayResult is the outcome of replaying the captured problems.
type replayResult struct {
	scheduleUS, feasibleUS, resourceNS float64
	checked, mismatches                int
}

// bucket is one resource's share of a captured mapping, as the EDF
// feasibility kernel sees it.
type bucket struct {
	preemptable bool
	t           float64
	entries     []sched.Entry
}

// replayCaptured checks FeasibleMapping against every captured solver
// verdict, then times (*Problem).Schedule and FeasibleMapping on the
// admitted mappings and sched.ResourceFeasible on their per-resource
// entry lists, each for at least budget.
func replayCaptured(caps []captured, budget time.Duration) replayResult {
	var res replayResult
	var admitted []captured
	var buckets []bucket
	for _, c := range caps {
		res.checked++
		if c.p.FeasibleMapping(c.mapping) != c.feasible {
			res.mismatches++
		}
		if c.feasible {
			admitted = append(admitted, c)
			buckets = append(buckets, split(c)...)
		}
	}
	if len(admitted) == 0 {
		return res
	}
	res.scheduleUS = timeLoop(budget, len(admitted), func(i int) {
		c := admitted[i]
		c.p.Schedule(c.mapping)
	}) * 1e6
	res.feasibleUS = timeLoop(budget, len(admitted), func(i int) {
		c := admitted[i]
		c.p.FeasibleMapping(c.mapping)
	}) * 1e6
	res.resourceNS = timeLoop(budget, len(buckets), func(i int) {
		b := buckets[i]
		sched.ResourceFeasible(b.preemptable, b.t, b.entries)
	}) * 1e9
	return res
}

// split builds the per-resource EDF entries of an admitted mapping, with
// the fields (*Problem).FeasibleMapping derives for each job.
func split(c captured) []bucket {
	p := c.p
	byRes := make([][]sched.Entry, p.Platform.Len())
	for i, j := range p.Jobs {
		r := c.mapping[i]
		ready := j.Arrival
		if p.Time > ready {
			ready = p.Time
		}
		byRes[r] = append(byRes[r], sched.Entry{
			ReadyAt:     ready,
			Deadline:    j.AbsDeadline,
			Rem:         j.CPM(r, p.Policy),
			PinnedFirst: j.Pinned(p.Platform) && j.Resource == r,
		})
	}
	var out []bucket
	for r, es := range byRes {
		if len(es) > 0 {
			out = append(out, bucket{p.Platform.Resource(r).Preemptable(), p.Time, es})
		}
	}
	return out
}

// timeLoop calls f over 0..n-1 repeatedly until budget has passed and
// returns the mean seconds per call.
func timeLoop(budget time.Duration, n int, f func(i int)) float64 {
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < budget {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return time.Since(start).Seconds() / float64(calls)
}
