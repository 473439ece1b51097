package predict

import (
	"math"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/task"
	"predrm/internal/trace"
)

func testTrace(t *testing.T, n int, seed uint64) *trace.Trace {
	t.Helper()
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultGenConfig(trace.VeryTight)
	cfg.Length = n
	tr, err := trace.Generate(set, cfg, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOraclePerfect(t *testing.T) {
	tr := testTrace(t, 50, 1)
	o, err := NewOracle(tr, OracleConfig{TypeAccuracy: 1, NumTypes: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len()-1; i++ {
		o.Observe(i, tr.Requests[i])
		p, ok := o.Predict()
		if !ok {
			t.Fatalf("no prediction after observing %d", i)
		}
		next := tr.Requests[i+1]
		if p.Type != next.Type || p.Arrival != next.Arrival || p.Deadline != next.Deadline {
			t.Fatalf("perfect oracle wrong at %d: %+v vs %+v", i, p, next)
		}
	}
	o.Observe(tr.Len()-1, tr.Requests[tr.Len()-1])
	if _, ok := o.Predict(); ok {
		t.Fatal("prediction past end of trace")
	}
}

func TestOracleTypeAccuracy(t *testing.T) {
	tr := testTrace(t, 4000, 2)
	o, err := NewOracle(tr, OracleConfig{TypeAccuracy: 0.75, NumTypes: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < tr.Len()-1; i++ {
		o.Observe(i, tr.Requests[i])
		p, ok := o.Predict()
		if !ok {
			t.Fatal("missing prediction")
		}
		if p.Type == tr.Requests[i+1].Type {
			correct++
		}
	}
	rate := float64(correct) / float64(tr.Len()-1)
	if math.Abs(rate-0.75) > 0.03 {
		t.Fatalf("empirical type accuracy %.3f, want ~0.75", rate)
	}
}

func TestOracleWrongTypeIsNeverTruth(t *testing.T) {
	tr := testTrace(t, 2000, 4)
	o, err := NewOracle(tr, OracleConfig{TypeAccuracy: 0, NumTypes: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len()-1; i++ {
		o.Observe(i, tr.Requests[i])
		p, _ := o.Predict()
		if p.Type == tr.Requests[i+1].Type {
			t.Fatalf("accuracy-0 oracle predicted the true type at %d", i)
		}
		if p.Type < 0 || p.Type >= 100 {
			t.Fatalf("wrong type out of range: %d", p.Type)
		}
	}
}

func TestOracleTimeErrorCalibration(t *testing.T) {
	tr := testTrace(t, 5000, 6)
	const target = 0.25
	o, err := NewOracle(tr, OracleConfig{TypeAccuracy: 1, TimeError: target, NumTypes: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var sumSq float64
	n := 0
	for i := 0; i < tr.Len()-1; i++ {
		o.Observe(i, tr.Requests[i])
		p, _ := o.Predict()
		d := p.Arrival - tr.Requests[i+1].Arrival
		sumSq += d * d
		n++
	}
	nrmse := math.Sqrt(sumSq/float64(n)) / tr.MeanInterarrival()
	if math.Abs(nrmse-target) > 0.02 {
		t.Fatalf("empirical NRMSE %.4f, want ~%.2f", nrmse, target)
	}
}

func TestOracleOverheadAndValidation(t *testing.T) {
	tr := testTrace(t, 10, 8)
	o, err := NewOracle(tr, OracleConfig{TypeAccuracy: 1, Overhead: 0.3, NumTypes: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if o.Overhead() != 0.3 {
		t.Fatalf("Overhead = %v", o.Overhead())
	}
	bad := []OracleConfig{
		{TypeAccuracy: -0.1, NumTypes: 5},
		{TypeAccuracy: 1.1, NumTypes: 5},
		{TypeAccuracy: 1, TimeError: -1, NumTypes: 5},
		{TypeAccuracy: 1, Overhead: -1, NumTypes: 5},
		{TypeAccuracy: 1},
		{TypeAccuracy: math.NaN(), NumTypes: 5},
		{TypeAccuracy: 1, TimeError: math.NaN(), NumTypes: 5},
		{TypeAccuracy: 1, Overhead: math.NaN(), NumTypes: 5},
	}
	for i, cfg := range bad {
		if _, err := NewOracle(tr, cfg); err == nil {
			t.Errorf("case %d: accepted invalid config", i)
		}
	}
	if _, err := NewOracle(nil, OracleConfig{TypeAccuracy: 1, NumTypes: 5}); err == nil {
		t.Error("accepted nil trace")
	}
}

func TestOracleReset(t *testing.T) {
	tr := testTrace(t, 20, 10)
	o, err := NewOracle(tr, OracleConfig{TypeAccuracy: 1, NumTypes: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		o.Observe(i, tr.Requests[i])
	}
	o.Reset()
	o.Observe(0, tr.Requests[0])
	p, ok := o.Predict()
	if !ok || p.Arrival != tr.Requests[1].Arrival {
		t.Fatalf("after Reset, prediction should be request 1: %+v ok=%v", p, ok)
	}
}

func TestMarkovLearnsDeterministicCycle(t *testing.T) {
	// A strict 0→1→2→0 cycle with constant gaps must become perfectly
	// predictable.
	m, err := NewMarkov(3, NewEWMA(0.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	for i := 0; i < 30; i++ {
		m.Observe(i, trace.Request{Arrival: now, Type: i % 3, Deadline: 10})
		now += 2
	}
	p, ok := m.Predict()
	if !ok {
		t.Fatal("no prediction")
	}
	if p.Type != 30%3 {
		t.Fatalf("predicted type %d, want %d", p.Type, 30%3)
	}
	if math.Abs(p.Arrival-now) > 1e-9 {
		t.Fatalf("predicted arrival %v, want %v", p.Arrival, now)
	}
	if math.Abs(p.Deadline-10) > 1e-9 {
		t.Fatalf("predicted deadline %v, want 10", p.Deadline)
	}
}

func TestMarkovColdStartAndReset(t *testing.T) {
	m, err := NewMarkov(3, nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Predict(); ok {
		t.Fatal("prediction before any observation")
	}
	if m.Overhead() != 0.1 {
		t.Fatalf("Overhead = %v", m.Overhead())
	}
	m.Observe(0, trace.Request{Arrival: 0, Type: 1, Deadline: 5})
	// One observation: no gap yet → EWMA empty → no prediction.
	if _, ok := m.Predict(); ok {
		t.Fatal("prediction without any interarrival observation")
	}
	m.Observe(1, trace.Request{Arrival: 3, Type: 2, Deadline: 5})
	if _, ok := m.Predict(); !ok {
		t.Fatal("prediction missing after two observations")
	}
	m.Reset()
	if _, ok := m.Predict(); ok {
		t.Fatal("prediction survives Reset")
	}
}

func TestMarkovValidation(t *testing.T) {
	if _, err := NewMarkov(0, nil, 0); err == nil {
		t.Fatal("accepted zero types")
	}
	if _, err := NewMarkov(3, nil, -1); err == nil {
		t.Fatal("accepted negative overhead")
	}
}

func TestMarkovFallbackToMarginal(t *testing.T) {
	// Last observed type has no outgoing transitions: fall back to the
	// marginal mode.
	m, err := NewMarkov(4, NewEWMA(0.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(0, trace.Request{Arrival: 0, Type: 1, Deadline: 4})
	m.Observe(1, trace.Request{Arrival: 1, Type: 1, Deadline: 4})
	m.Observe(2, trace.Request{Arrival: 2, Type: 3, Deadline: 6})
	// Type 3 has never been followed by anything; marginal mode is 1.
	p, ok := m.Predict()
	if !ok || p.Type != 1 {
		t.Fatalf("fallback prediction %+v ok=%v, want type 1", p, ok)
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if _, ok := e.Predict(); ok {
		t.Fatal("EWMA predicted before data")
	}
	e.Observe(4)
	if g, _ := e.Predict(); g != 4 {
		t.Fatalf("first gap %v, want 4", g)
	}
	e.Observe(8)
	if g, _ := e.Predict(); g != 6 {
		t.Fatalf("smoothed gap %v, want 6", g)
	}
	e.Reset()
	if _, ok := e.Predict(); ok {
		t.Fatal("EWMA survives Reset")
	}
	// Constructor clamps bad alpha.
	if NewEWMA(-1).alpha != 0.2 {
		t.Fatal("bad alpha not clamped")
	}
}

func TestTwoPhaseAlternation(t *testing.T) {
	// Strictly alternating short/long gaps: after the pattern locks in,
	// forecasts should alternate with the phases.
	tp := NewTwoPhase(0.5)
	if _, ok := tp.Predict(); ok {
		t.Fatal("TwoPhase predicted before data")
	}
	gaps := []float64{1, 9, 1, 9, 1, 9, 1, 9, 1, 9}
	for _, g := range gaps {
		tp.Observe(g)
	}
	// Last gap was long (9): next should be short (~1).
	g, ok := tp.Predict()
	if !ok {
		t.Fatal("no prediction")
	}
	if g > 5 {
		t.Fatalf("after long phase predicted %v, want short", g)
	}
	tp.Observe(1)
	g, _ = tp.Predict()
	if g < 5 {
		t.Fatalf("after short phase predicted %v, want long", g)
	}
	tp.Reset()
	if _, ok := tp.Predict(); ok {
		t.Fatal("TwoPhase survives Reset")
	}
}

func TestTwoPhaseSingleObservation(t *testing.T) {
	tp := NewTwoPhase(0.3)
	tp.Observe(3)
	g, ok := tp.Predict()
	if !ok || g != 3 {
		t.Fatalf("single-observation prediction %v ok=%v", g, ok)
	}
}

func TestMarkovAccuracyOnRealTraceBeatsChance(t *testing.T) {
	// On a uniform-random type stream Markov cannot beat chance on types,
	// but its interarrival forecasts must be close to the mean gap.
	tr := testTrace(t, 2000, 12)
	m, err := NewMarkov(100, NewEWMA(0.2), 0)
	if err != nil {
		t.Fatal(err)
	}
	var absErr float64
	n := 0
	for i := 0; i < tr.Len()-1; i++ {
		m.Observe(i, tr.Requests[i])
		if p, ok := m.Predict(); ok {
			absErr += math.Abs(p.Arrival - tr.Requests[i+1].Arrival)
			n++
		}
	}
	mean := tr.MeanInterarrival()
	if n < tr.Len()/2 {
		t.Fatalf("too few predictions: %d", n)
	}
	if avg := absErr / float64(n); avg > mean {
		t.Fatalf("mean arrival error %.3f worse than predicting nothing (mean gap %.3f)", avg, mean)
	}
}
