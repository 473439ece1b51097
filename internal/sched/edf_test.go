package sched

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"predrm/internal/rng"
)

func segTotal(segs []Segment, idx int) float64 {
	var tot float64
	for _, s := range segs {
		if s.Index == idx {
			tot += s.End - s.Start
		}
	}
	return tot
}

func TestSimulateEDFEmpty(t *testing.T) {
	segs, ok := SimulateEDF(true, 0, nil)
	if !ok || segs != nil {
		t.Fatal("empty entry set must be trivially feasible")
	}
}

func TestSimulateEDFSingle(t *testing.T) {
	segs, ok := SimulateEDF(true, 10, []Entry{{ReadyAt: 10, Deadline: 15, Rem: 5}})
	if !ok {
		t.Fatal("exact-fit entry must be feasible")
	}
	if len(segs) != 1 || segs[0].Start != 10 || segs[0].End != 15 {
		t.Fatalf("segments = %+v", segs)
	}
}

func TestSimulateEDFDeadlineOrder(t *testing.T) {
	// Two ready entries: EDF must run the earlier deadline first.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 20, Rem: 5},
		{ReadyAt: 0, Deadline: 10, Rem: 5},
	}
	segs, ok := SimulateEDF(true, 0, entries)
	if !ok {
		t.Fatal("feasible set rejected")
	}
	if segs[0].Index != 1 || segs[1].Index != 0 {
		t.Fatalf("EDF order wrong: %+v", segs)
	}
}

func TestSimulateEDFMissesDeadline(t *testing.T) {
	entries := []Entry{
		{ReadyAt: 0, Deadline: 4, Rem: 3},
		{ReadyAt: 0, Deadline: 5, Rem: 3},
	}
	if _, ok := SimulateEDF(true, 0, entries); ok {
		t.Fatal("overloaded set accepted")
	}
}

func TestSimulateEDFPreemptionByRelease(t *testing.T) {
	// A long low-priority entry is running; a tighter one releases at 2 and
	// must preempt on a preemptable resource.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 20, Rem: 10},
		{ReadyAt: 2, Deadline: 6, Rem: 3},
	}
	segs, ok := SimulateEDF(true, 0, entries)
	if !ok {
		t.Fatalf("preemptive case must be feasible, segs=%+v", segs)
	}
	// Expect: [0: 0-2], [1: 2-5], [0: 5-13].
	want := []Segment{{0, 0, 2}, {1, 2, 5}, {0, 5, 13}}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments %+v, want %+v", len(segs), segs, want)
	}
	for i := range want {
		if segs[i].Index != want[i].Index ||
			math.Abs(segs[i].Start-want[i].Start) > Eps ||
			math.Abs(segs[i].End-want[i].End) > Eps {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
}

func TestSimulateEDFNonPreemptiveBlocks(t *testing.T) {
	// Same scenario on a non-preemptable resource: the running entry blocks
	// the tight release, which then misses its deadline.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 20, Rem: 10},
		{ReadyAt: 2, Deadline: 6, Rem: 3},
	}
	segs, ok := SimulateEDF(false, 0, entries)
	if ok {
		t.Fatalf("non-preemptive blocking case must be infeasible, segs=%+v", segs)
	}
	// Entry 0 must have run to completion in one piece.
	if segTotal(segs, 0) != 10 || segs[0].Index != 0 || segs[0].End != 10 {
		t.Fatalf("non-preemptive run-to-completion violated: %+v", segs)
	}
}

func TestSimulateEDFNonPreemptiveFeasibleWaiting(t *testing.T) {
	// Non-preemptive but with enough slack: release waits and still makes it.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 20, Rem: 4},
		{ReadyAt: 2, Deadline: 10, Rem: 3},
	}
	segs, ok := SimulateEDF(false, 0, entries)
	if !ok {
		t.Fatalf("waiting case must be feasible: %+v", segs)
	}
	if segs[1].Index != 1 || segs[1].Start != 4 || segs[1].End != 7 {
		t.Fatalf("second entry misplaced: %+v", segs)
	}
}

func TestSimulateEDFPinnedFirst(t *testing.T) {
	// On a GPU the mid-execution occupant runs before a tighter-deadline
	// queued entry.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 30, Rem: 5, PinnedFirst: true},
		{ReadyAt: 0, Deadline: 10, Rem: 4},
	}
	segs, ok := SimulateEDF(false, 0, entries)
	if !ok {
		t.Fatalf("pinned case must be feasible: %+v", segs)
	}
	if segs[0].Index != 0 || segs[0].End != 5 || segs[1].Index != 1 || segs[1].End != 9 {
		t.Fatalf("pinned-first order violated: %+v", segs)
	}
}

func TestSimulateEDFIdleGap(t *testing.T) {
	// Only a future release: the schedule idles until it is ready.
	entries := []Entry{{ReadyAt: 5, Deadline: 9, Rem: 3}}
	segs, ok := SimulateEDF(true, 0, entries)
	if !ok || len(segs) != 1 || segs[0].Start != 5 || segs[0].End != 8 {
		t.Fatalf("idle gap handled wrong: %+v ok=%v", segs, ok)
	}
}

func TestSimulateEDFMergesContiguousSegments(t *testing.T) {
	// A release that does NOT preempt (later deadline) must not split the
	// running entry's segment.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 10, Rem: 6},
		{ReadyAt: 2, Deadline: 30, Rem: 3},
	}
	segs, ok := SimulateEDF(true, 0, entries)
	if !ok {
		t.Fatal("feasible set rejected")
	}
	if len(segs) != 2 || segs[0].End != 6 {
		t.Fatalf("contiguous segments not merged: %+v", segs)
	}
}

func TestResourceFeasibleMatchesSimulation(t *testing.T) {
	// Property: the fast ResourceFeasible decision equals full simulation.
	r := rng.New(99)
	f := func(seedRaw uint64) bool {
		rr := rng.New(seedRaw ^ r.Uint64())
		n := 1 + rr.Intn(6)
		entries := make([]Entry, n)
		t0 := rr.Uniform(0, 10)
		for i := range entries {
			ready := t0
			if rr.Float64() < 0.3 {
				ready = t0 + rr.Uniform(0, 5)
			}
			rem := rr.Uniform(0.5, 5)
			entries[i] = Entry{
				ReadyAt:  ready,
				Deadline: ready + rem*rr.Uniform(0.8, 4),
				Rem:      rem,
			}
		}
		for _, preempt := range []bool{true, false} {
			if err := checkEDF(preempt, t0, entries); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestResourceFeasibleNecessaryCut(t *testing.T) {
	// A single entry that cannot fit its own window must be rejected even
	// without simulation.
	if ResourceFeasible(true, 0, []Entry{{ReadyAt: 4, Deadline: 6, Rem: 3}}) {
		t.Fatal("entry with Rem > window accepted")
	}
}

func TestSimulateEDFWorkConservation(t *testing.T) {
	// Property: generous deadlines are feasible, and the schedule passes
	// the EDF oracle (exact service, no overlap, no early start).
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(5)
		entries := make([]Entry, n)
		for i := range entries {
			rem := rr.Uniform(0.5, 3)
			ready := rr.Uniform(0, 4)
			entries[i] = Entry{ReadyAt: ready, Deadline: ready + rem + rr.Uniform(5, 20), Rem: rem}
		}
		for _, preempt := range []bool{true, false} {
			if _, ok := SimulateEDF(preempt, 0, entries); !ok {
				return false
			}
			if err := checkEDF(preempt, 0, entries); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzEDF checks the EDF oracle on random single-resource instances of 1–8
// entries: future releases, a pinned occupant on non-preemptable
// resources, and windows tight enough to be infeasible. The seed corpus
// runs under plain go test.
func FuzzEDF(f *testing.F) {
	for seed := uint64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		for _, preempt := range []bool{true, false} {
			t0, entries := edfInstance(seed, preempt)
			if err := checkEDF(preempt, t0, entries); err != nil {
				t.Fatalf("seed %d preemptable=%v t=%g entries=%+v: %v", seed, preempt, t0, entries, err)
			}
		}
	})
}

// edfInstance derives one random instance from seed. Releases never
// precede t0 (the Entry contract); on non-preemptable resources the first
// entry may be the pinned mid-execution occupant.
func edfInstance(seed uint64, preemptable bool) (t0 float64, entries []Entry) {
	r := rng.New(seed)
	t0 = r.Uniform(0, 10)
	entries = make([]Entry, 1+r.Intn(8))
	for i := range entries {
		pinned := !preemptable && i == 0 && r.Float64() < 0.5
		ready := t0
		if !pinned && r.Float64() < 0.3 {
			ready = t0 + r.Uniform(0, 5)
		}
		rem := r.Uniform(0.1, 5)
		entries[i] = Entry{
			ReadyAt:     ready,
			Deadline:    ready + rem*r.Uniform(0.5, 4),
			Rem:         rem,
			PinnedFirst: pinned,
		}
	}
	return t0, entries
}

// checkEDF is the EDF oracle: the hot verdict, the constructed schedule
// and the explain path must all agree. ResourceFeasible equals
// SimulateEDF's verdict, which is false exactly when some entry's last
// segment ends past its deadline; every entry is served Rem in total by
// non-overlapping segments that never start before its release; and on a
// non-preemptable resource every entry runs as one segment.
func checkEDF(preemptable bool, t0 float64, entries []Entry) error {
	segs, ok := SimulateEDF(preemptable, t0, entries)
	if got := ResourceFeasible(preemptable, t0, entries); got != ok {
		return fmt.Errorf("ResourceFeasible %v, SimulateEDF %v", got, ok)
	}
	last := make([]float64, len(entries))
	count := make([]int, len(entries))
	for i, s := range segs {
		if i > 0 && s.Start < segs[i-1].End-Eps {
			return fmt.Errorf("segment %d %+v overlaps %+v", i, s, segs[i-1])
		}
		if s.Start < entries[s.Index].ReadyAt-Eps {
			return fmt.Errorf("segment %d %+v starts before release %g", i, s, entries[s.Index].ReadyAt)
		}
		last[s.Index] = math.Max(last[s.Index], s.End)
		count[s.Index]++
	}
	missed := false
	for i, e := range entries {
		if got := segTotal(segs, i); math.Abs(got-e.Rem) > 1e-6 {
			return fmt.Errorf("entry %d served %g, want %g", i, got, e.Rem)
		}
		if !preemptable && count[i] != 1 {
			return fmt.Errorf("entry %d runs in %d segments on a non-preemptable resource", i, count[i])
		}
		if last[i] > e.Deadline+Eps {
			missed = true
		}
	}
	if missed == ok {
		return fmt.Errorf("SimulateEDF feasible=%v, but a deadline miss in its segments is %v", ok, missed)
	}
	var l EntryList
	for _, e := range entries {
		l.Insert(t0, e)
	}
	var scratch EDFScratch
	if got, want := l.FeasibleExplain(preemptable, t0).Feasible, l.Feasible(preemptable, t0, &scratch); got != want {
		return fmt.Errorf("EntryList.FeasibleExplain %v, EntryList.Feasible %v", got, want)
	}
	return nil
}
