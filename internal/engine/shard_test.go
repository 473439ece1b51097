package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/trace"
)

// shardFixture builds a large-platform workload and a fresh sharded
// engine factory over it.
func shardFixture(t *testing.T, spec string, shards, length int, meanIA float64, seed uint64) (*trace.Trace, func() *Sharded) {
	t.Helper()
	plat, err := platform.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	gc := trace.DefaultGenConfig(trace.VeryTight)
	gc.Length = length
	gc.InterarrivalMean = meanIA
	gc.InterarrivalStd = meanIA / 3
	tr, err := trace.Generate(set, gc, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return tr, func() *Sharded {
		d, err := NewSharded(Config{Platform: plat, TaskSet: set}, ShardConfig{
			Shards:    shards,
			NewSolver: func() core.Solver { return &core.Heuristic{} },
		})
		if err != nil {
			t.Fatal(err)
		}
		return d.(*Sharded)
	}
}

// TestShardedNextWakeIsMin: the scale-out engine's next wake time is the
// minimum over its shards' own wake times — the property the wall-clock
// dispatcher's timer depends on at shard boundaries.
func TestShardedNextWakeIsMin(t *testing.T) {
	tr, build := shardFixture(t, "16c2g", 4, 60, 1.0, 71)
	s := build()
	sawWake := false
	for i, req := range tr.Requests {
		if _, err := s.Activate(i, req); err != nil {
			t.Fatal(err)
		}
		want, wantOK := math.Inf(1), false
		for si := range s.shards {
			if w, ok := s.shards[si].eng.NextWake(); ok && w < want {
				want, wantOK = w, true
			}
		}
		got, gotOK := s.NextWake()
		if gotOK != wantOK || (wantOK && got != want) {
			t.Fatalf("after req %d: NextWake = (%v, %v), min over shards = (%v, %v)", i, got, gotOK, want, wantOK)
		}
		if wantOK {
			sawWake = true
			if got < req.Arrival {
				t.Fatalf("after req %d: next wake %v before engine time %v", i, got, req.Arrival)
			}
		}
	}
	if !sawWake {
		t.Fatal("no activation left a pending wake; fixture too idle to test anything")
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextWake(); ok {
		t.Fatal("drained engine still reports a pending wake")
	}
}

// TestShardedAdvanceToLateHarmless: advancing far past many pending
// events in one late call lands in exactly the state reached by stepping
// wake-by-wake, and a stale (earlier) AdvanceTo after that is a no-op —
// DESIGN.md §11's contract, here across shard boundaries where each
// shard replays a different event backlog.
func TestShardedAdvanceToLateHarmless(t *testing.T) {
	tr, build := shardFixture(t, "16c2g", 4, 80, 0.8, 81)
	mid := len(tr.Requests) / 2

	stepped, late := build(), build()
	for i, req := range tr.Requests[:mid] {
		if _, err := stepped.Activate(i, req); err != nil {
			t.Fatal(err)
		}
		if _, err := late.Activate(i, req); err != nil {
			t.Fatal(err)
		}
	}
	horizon := stepped.Now() + 50
	// One driver follows every wake; the other sleeps through all of them
	// and pushes the clock once.
	for {
		w, ok := stepped.NextWake()
		if !ok || w > horizon {
			break
		}
		if err := stepped.AdvanceTo(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := stepped.AdvanceTo(horizon); err != nil {
		t.Fatal(err)
	}
	if err := late.AdvanceTo(horizon); err != nil {
		t.Fatal(err)
	}
	// Stale advance: strictly earlier than the clock; must change nothing.
	if err := late.AdvanceTo(horizon - 25); err != nil {
		t.Fatalf("stale AdvanceTo errored: %v", err)
	}
	if got := late.Now(); got != horizon {
		t.Fatalf("stale AdvanceTo moved the clock: %v, want %v", got, horizon)
	}
	if a, b := stepped.InFlight(), late.InFlight(); a != b {
		t.Fatalf("in-flight diverges: stepped %d, late %d", a, b)
	}

	// Both continue identically to the end of the trace.
	for i, req := range tr.Requests[mid:] {
		if _, err := stepped.Activate(mid+i, req); err != nil {
			t.Fatal(err)
		}
		if _, err := late.Activate(mid+i, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := stepped.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := late.Drain(); err != nil {
		t.Fatal(err)
	}
	a, b := stepped.Finalize(), late.Finalize()
	// Decisions and counters must agree exactly. Energies and finish
	// times are accumulated per executed segment, and the two drivers
	// split segments at different AdvanceTo boundaries, so those float
	// sums may differ in the last ulp — that is the only slack granted.
	if a.Requests != b.Requests || a.Accepted != b.Accepted || a.Rejected != b.Rejected ||
		a.Migrations != b.Migrations || a.DeadlineMisses != b.DeadlineMisses {
		t.Fatalf("late advance changed the run: %+v vs %+v", a, b)
	}
	if math.Abs(a.TotalEnergy-b.TotalEnergy) > 1e-9 {
		t.Fatalf("total energy diverges: %v vs %v", a.TotalEnergy, b.TotalEnergy)
	}
	if math.Abs(a.MakeSpan-b.MakeSpan) > 1e-9 {
		t.Fatalf("makespan diverges: %v vs %v", a.MakeSpan, b.MakeSpan)
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.Accepted != jb.Accepted || ja.Migrations != jb.Migrations || ja.MissedDeadline != jb.MissedDeadline {
			t.Fatalf("job %d diverges: %+v vs %+v", i, ja, jb)
		}
		if math.Abs(ja.FinishTime-jb.FinishTime) > 1e-9 {
			t.Fatalf("job %d finish time diverges: %v vs %v", i, ja.FinishTime, jb.FinishTime)
		}
		if math.Abs(ja.Energy-jb.Energy) > 1e-9 {
			t.Fatalf("job %d energy diverges: %v vs %v", i, ja.Energy, jb.Energy)
		}
	}
}

// TestBatchEpochSingletonDelegates: a one-request epoch closing at its
// own arrival is the one-by-one protocol — byte-identical Results on a
// bare (unsharded) Engine.
func TestBatchEpochSingletonDelegates(t *testing.T) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(91))
	if err != nil {
		t.Fatal(err)
	}
	gc := trace.DefaultGenConfig(trace.VeryTight)
	gc.Length = 100
	gc.InterarrivalMean = 4
	gc.InterarrivalStd = 4.0 / 3
	tr, err := trace.Generate(set, gc, rng.New(92))
	if err != nil {
		t.Fatal(err)
	}
	newEng := func() *Engine {
		e, err := New(Config{Platform: platform.Default(), TaskSet: set, Solver: &core.Heuristic{}})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	oneByOne, epochs := newEng(), newEng()
	for i, req := range tr.Requests {
		if _, err := oneByOne.Activate(i, req); err != nil {
			t.Fatal(err)
		}
		outs, err := epochs.ActivateEpoch(i, tr.Requests[i:i+1], req.Arrival)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 1 || outs[0].Req != i {
			t.Fatalf("epoch %d: bad outcomes %+v", i, outs)
		}
	}
	if err := oneByOne.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := epochs.Drain(); err != nil {
		t.Fatal(err)
	}
	aJSON, _ := json.Marshal(oneByOne.Finalize())
	bJSON, _ := json.Marshal(epochs.Finalize())
	if !bytes.Equal(aJSON, bJSON) {
		t.Fatalf("singleton epochs diverge from Activate:\n%s\n%s", aJSON, bJSON)
	}
}

// TestBatchEpochDecidesAtClose: every decision of a multi-request epoch
// is taken at the epoch close (no overhead configured), and the arrivals
// were all recorded at their own times.
func TestBatchEpochDecidesAtClose(t *testing.T) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(95))
	if err != nil {
		t.Fatal(err)
	}
	gc := trace.DefaultGenConfig(trace.LessTight)
	gc.Length = 8
	gc.InterarrivalMean = 1
	gc.InterarrivalStd = 0.3
	tr, err := trace.Generate(set, gc, rng.New(96))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Platform: platform.Default(), TaskSet: set, Solver: &core.Heuristic{}})
	if err != nil {
		t.Fatal(err)
	}
	close := tr.Requests[len(tr.Requests)-1].Arrival + 2
	outs, err := e.ActivateEpoch(0, tr.Requests, close)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(tr.Requests) {
		t.Fatalf("got %d outcomes for %d requests", len(outs), len(tr.Requests))
	}
	for i, out := range outs {
		if out.Req != i {
			t.Fatalf("outcome %d has req %d", i, out.Req)
		}
		if out.Time != close {
			t.Fatalf("outcome %d decided at %v, want epoch close %v", i, out.Time, close)
		}
	}
	if e.Requests() != len(tr.Requests) {
		t.Fatalf("engine counted %d requests, want %d", e.Requests(), len(tr.Requests))
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	res := e.Finalize()
	for i, rec := range res.Jobs {
		if rec.Arrival != tr.Requests[i].Arrival {
			t.Fatalf("job %d arrival %v, want %v", i, rec.Arrival, tr.Requests[i].Arrival)
		}
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("%d accepted jobs missed deadlines", res.DeadlineMisses)
	}
}

// TestBatchEpochLastSampleReportsInstalledReservations: the last state
// sample of a multi-request epoch is taken after the epoch's replan, so
// its reservation counts are the ones the epoch installed — the picture a
// live plane shows until the next activation — not the ones it replaced.
func TestBatchEpochLastSampleReportsInstalledReservations(t *testing.T) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(95))
	if err != nil {
		t.Fatal(err)
	}
	gc := trace.DefaultGenConfig(trace.VeryTight)
	gc.Length = 300
	tr, err := trace.Generate(set, gc, rng.New(96))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	var last StateSample
	e, err := New(Config{
		Platform:   platform.Default(),
		TaskSet:    set,
		Solver:     &core.Heuristic{},
		Predictor:  oracle,
		StateProbe: func(s StateSample) { last = s },
	})
	if err != nil {
		t.Fatal(err)
	}
	const window = 3.0
	reqs := tr.Requests
	multi, reserved := 0, 0
	for i := 0; i < len(reqs); {
		j := i + 1
		for j < len(reqs) && reqs[j].Arrival <= reqs[i].Arrival+window+sched.Eps {
			j++
		}
		close := math.Max(reqs[i].Arrival+window, reqs[j-1].Arrival)
		if _, err := e.ActivateEpoch(i, reqs[i:j], close); err != nil {
			t.Fatal(err)
		}
		if j-i > 1 {
			multi++
			want := make([]int, platform.Default().Len())
			for _, g := range e.pendingResv {
				want[g.res]++
			}
			reserved += len(e.pendingResv)
			if last.Req != j-1 {
				t.Fatalf("epoch [%d,%d): last sample is for request %d", i, j, last.Req)
			}
			for res, rs := range last.Resources {
				if rs.Reserved != want[res] {
					t.Fatalf("epoch [%d,%d): last sample reports %d reservations on resource %d, installed plan has %d",
						i, j, rs.Reserved, res, want[res])
				}
			}
		}
		i = j
	}
	if multi == 0 || reserved == 0 {
		t.Fatalf("vacuous: %d multi-request epochs, %d installed reservations", multi, reserved)
	}
}

// TestShardedEpochValidatesBeforeRouting: a batch with a bad request
// fails whole, naming the request by its global id, and leaves the
// routing state untouched so the driver can retry from the same id.
func TestShardedEpochValidatesBeforeRouting(t *testing.T) {
	tr, build := shardFixture(t, "16c2g", 2, 4, 1.0, 61)
	s := build()
	bad := append([]trace.Request(nil), tr.Requests[:2]...)
	bad[1].Deadline = 0
	_, err := s.ActivateEpoch(0, bad, bad[1].Arrival)
	if err == nil || !strings.Contains(err.Error(), "request 1 has non-positive deadline") {
		t.Fatalf("bad batch: got error %v", err)
	}
	if s.Requests() != 0 || s.Now() != 0 {
		t.Fatalf("failed batch changed state: %d requests routed, clock %v", s.Requests(), s.Now())
	}
	outs, err := s.ActivateEpoch(0, tr.Requests[:2], tr.Requests[1].Arrival)
	if err != nil {
		t.Fatalf("retry after a rejected batch: %v", err)
	}
	if len(outs) != 2 || s.Requests() != 2 {
		t.Fatalf("retry: %d outcomes, %d requests routed", len(outs), s.Requests())
	}
}
