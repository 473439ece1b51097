package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"predrm/internal/core"
	"predrm/internal/exact"
	"predrm/internal/predict"
	"predrm/internal/sched"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// Caps on what a traced phase keeps in memory. Aggregates cover every
// call; only the stored span list and the captured problems are bounded.
const (
	maxSpans    = 200_000
	maxCaptured = 3_000
)

// span is one timed call into a layer, recorded by the benchmark around
// the call: the program itself carries no tracing.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // -1: root span
	Req    int    `json:"req"`    // request id, -1: none
}

type interval struct{ a, b int64 }

// captured is one problem handed to a solver, deep-copied before the
// engine mutates its jobs, with the solver's answer.
type captured struct {
	p        *sched.Problem
	mapping  []int
	feasible bool
}

// spanLog collects the spans of one traced phase and the per-layer
// aggregates derived from them. Solver decorators of concurrent shards
// report into one log, so every method takes the mutex.
type spanLog struct {
	mu      sync.Mutex
	origin  time.Time
	spans   []span
	nextID  int
	dropped int

	// The open root span (one Activate or ActivateEpoch call of a sim
	// driver), its position in spans (-1: not kept) and the intervals of
	// its children so far.
	root, rootIdx, rootReq int
	rootStart              time.Time
	kids                   []interval

	// Per-call admission bookkeeping, folded into the totals at close.
	callSolves   int
	callForecast bool

	calls, requests           int
	engineSelf                samples
	solves, jobs              int
	forecastCalls, fallbacks  int
	coreSolve, exactSolve     samples
	exactNodes, exactWarmCuts int
	exactTruncated, exactWarm int
	predictTime               float64
	typeScored, typeHits      int
	arrivalErrSum             float64
	// reqSolvePredict sums solve and predict time per request id for
	// spans recorded without an open root (the server's activations).
	reqSolvePredict map[int]float64
	captures        []captured
	shardSolveTime  float64
}

func newSpanLog() *spanLog {
	return &spanLog{origin: time.Now(), root: -1, reqSolvePredict: make(map[int]float64)}
}

func (l *spanLog) ns(t time.Time) int64 { return int64(t.Sub(l.origin)) }

// addLocked stores a span when under the cap and returns its id.
func (l *spanLog) addLocked(name string, start, end time.Time, parent, req int) int {
	id := l.nextID
	l.nextID++
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{ID: id, Name: name, Start: l.ns(start), End: l.ns(end), Parent: parent, Req: req})
	} else {
		l.dropped++
	}
	return id
}

// open starts a root span for a driver call deciding the requests
// from req on. close fills in its end.
func (l *spanLog) open(name string, req int, start time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.root = l.addLocked(name, start, start, -1, req)
	l.rootIdx = -1
	if n := len(l.spans); n > 0 && l.spans[n-1].ID == l.root {
		l.rootIdx = n - 1
	}
	l.rootReq, l.rootStart = req, start
	l.kids = l.kids[:0]
	l.callSolves, l.callForecast = 0, false
}

// close ends the open root span, which decided n requests, and records
// the engine's self time: the call's duration minus the union of its
// children's intervals.
func (l *spanLog) close(n int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rootIdx >= 0 {
		l.spans[l.rootIdx].End = l.ns(end)
	}
	self := end.Sub(l.rootStart) - time.Duration(unionLen(l.kids))
	l.engineSelf.addDur(self)
	l.calls++
	l.requests += n
	if l.callForecast {
		l.forecastCalls++
		if l.callSolves > 1 {
			l.fallbacks++
		}
	}
	l.root = -1
}

// rootSpan is a completed root span recorded after the fact (the HTTP
// round trip of one serve request).
func (l *spanLog) rootSpan(name string, req int, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addLocked(name, start, end, -1, req)
}

// child records a layer call under the open root (sim drivers) or, when
// no root is open, under the request id alone (the server, whose
// activations run on its own goroutines).
func (l *spanLog) childLocked(name string, start, end time.Time, req int) {
	parent := l.root
	if parent >= 0 {
		req = l.rootReq
		l.kids = append(l.kids, interval{l.ns(start), l.ns(end)})
	} else if req >= 0 {
		l.reqSolvePredict[req] += end.Sub(start).Seconds()
	}
	l.addLocked(name, start, end, parent, req)
}

func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	var total int64
	a, b := iv[0].a, iv[0].b
	for _, x := range iv[1:] {
		if x.a > b {
			total += b - a
			a, b = x.a, x.b
			continue
		}
		if x.b > b {
			b = x.b
		}
	}
	return total + b - a
}

// write stores the kept spans as JSON lines, one span per line, with
// child spans resolved to their request's root when recorded without one.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	roots := make(map[int]int)
	for _, s := range l.spans {
		if s.Parent == -1 && s.Req >= 0 {
			roots[s.Req] = s.ID
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if s.Parent == -1 && !isRootName(s.Name) {
			if id, ok := roots[s.Req]; ok {
				s.Parent = id
			}
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func isRootName(name string) bool {
	return name == "engine.activate" || name == "engine.activate_epoch" || name == "serve.request"
}

// arrivingID returns the request id of the newest real job in p: the
// arriving request (predicted jobs carry negative ids).
func arrivingID(p *sched.Problem) int {
	id := -1
	for _, j := range p.Jobs {
		if !j.Predicted && j.ID > id {
			id = j.ID
		}
	}
	return id
}

// timedSolver times every Solve of the wrapped solver. It forwards the
// optional interfaces the engine and solver chains look for
// (telemetry.Instrumentable, telemetry.ProvenanceAware; timedBudgetSolver
// adds core.BudgetAware), so wrapping leaves decisions unchanged.
type timedSolver struct {
	inner core.Solver
	log   *spanLog
	name  string // "core.solve" or "exact.solve"
	opt   *exact.Optimal
	// sharded marks a shard's solver, whose solve time counts towards
	// the shards' overlap.
	sharded bool
}

// wrapSolver decorates s for a traced phase.
func wrapSolver(s core.Solver, log *spanLog, sharded bool) core.Solver {
	t := &timedSolver{inner: s, log: log, name: "core.solve", sharded: sharded}
	if o, ok := s.(*exact.Optimal); ok {
		t.name, t.opt = "exact.solve", o
	}
	if ba, ok := s.(core.BudgetAware); ok {
		return &timedBudgetSolver{timedSolver: t, ba: ba}
	}
	return t
}

func (t *timedSolver) Solve(p *sched.Problem) core.Decision {
	start := time.Now()
	d := t.inner.Solve(p)
	end := time.Now()

	l := t.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.childLocked(t.name, start, end, arrivingID(p))
	dur := end.Sub(start).Seconds()
	l.solves++
	l.jobs += len(p.Jobs)
	l.callSolves++
	if p.NumPredicted() > 0 {
		l.callForecast = true
	}
	if t.sharded {
		l.shardSolveTime += dur
	}
	if t.opt != nil {
		l.exactSolve.add(dur)
		st := t.opt.LastStats
		l.exactNodes += st.Nodes
		l.exactWarmCuts += st.WarmCuts
		if st.Truncated {
			l.exactTruncated++
		}
		if st.WarmSeeded {
			l.exactWarm++
		}
	} else {
		l.coreSolve.add(dur)
	}
	// Solvers treat the problem as read-only, so it is still the one
	// solved; the engine moves its jobs on only after Solve returns.
	if len(l.captures) < maxCaptured {
		l.captures = append(l.captures, captured{p: cloneProblem(p), mapping: append([]int(nil), d.Mapping...), feasible: d.Feasible})
	}
	return d
}

func (t *timedSolver) AttachMetrics(reg *telemetry.Registry) {
	if i, ok := t.inner.(telemetry.Instrumentable); ok {
		i.AttachMetrics(reg)
	}
}

func (t *timedSolver) AttachProvenance(rec *telemetry.ProvRecorder) {
	if pa, ok := t.inner.(telemetry.ProvenanceAware); ok {
		pa.AttachProvenance(rec)
	}
}

type timedBudgetSolver struct {
	*timedSolver
	ba core.BudgetAware
}

func (t *timedBudgetSolver) ApplyBudget(b core.Budget)  { t.ba.ApplyBudget(b) }
func (t *timedBudgetSolver) BudgetUsed() core.BudgetUse { return t.ba.BudgetUsed() }

var (
	_ telemetry.Instrumentable  = (*timedSolver)(nil)
	_ telemetry.ProvenanceAware = (*timedSolver)(nil)
	_ core.BudgetAware          = (*timedBudgetSolver)(nil)
)

// cloneProblem deep-copies p's jobs (Job.Clone) so the engine's later
// progress on them does not change the captured instance.
func cloneProblem(p *sched.Problem) *sched.Problem {
	q := *p
	q.Jobs = make([]*sched.Job, len(p.Jobs))
	for i, j := range p.Jobs {
		q.Jobs[i] = j.Clone()
	}
	return &q
}

// timedPredictor times Observe and Predict/PredictK of the wrapped
// predictor and scores each forecast against the next actual request.
type timedPredictor struct {
	inner   predict.Predictor
	log     *spanLog
	lastReq int
	pending *predict.Prediction
}

// wrapPredictor decorates p for a traced phase, keeping
// predict.MultiPredictor when p has it.
func wrapPredictor(p predict.Predictor, log *spanLog) predict.Predictor {
	t := &timedPredictor{inner: p, log: log, lastReq: -1}
	if mp, ok := p.(predict.MultiPredictor); ok {
		return &timedMultiPredictor{timedPredictor: t, mp: mp}
	}
	return t
}

func (t *timedPredictor) Observe(idx int, req trace.Request) {
	start := time.Now()
	t.inner.Observe(idx, req)
	end := time.Now()
	l := t.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if t.pending != nil {
		l.typeScored++
		if t.pending.Type == req.Type {
			l.typeHits++
		}
		e := t.pending.Arrival - req.Arrival
		if e < 0 {
			e = -e
		}
		l.arrivalErrSum += e
		t.pending = nil
	}
	t.lastReq = idx
	l.predictTime += end.Sub(start).Seconds()
	l.childLocked("predict.observe", start, end, idx)
}

func (t *timedPredictor) Predict() (predict.Prediction, bool) {
	start := time.Now()
	p, ok := t.inner.Predict()
	end := time.Now()
	t.done(start, end, p, ok)
	return p, ok
}

func (t *timedPredictor) done(start, end time.Time, p predict.Prediction, ok bool) {
	l := t.log
	l.mu.Lock()
	defer l.mu.Unlock()
	if ok {
		t.pending = &p
	}
	l.predictTime += end.Sub(start).Seconds()
	l.childLocked("predict.predict", start, end, t.lastReq)
}

func (t *timedPredictor) Overhead() float64 { return t.inner.Overhead() }
func (t *timedPredictor) Reset()            { t.inner.Reset(); t.pending = nil; t.lastReq = -1 }

type timedMultiPredictor struct {
	*timedPredictor
	mp predict.MultiPredictor
}

func (t *timedMultiPredictor) PredictK(k int) []predict.Prediction {
	start := time.Now()
	ps := t.mp.PredictK(k)
	end := time.Now()
	var first predict.Prediction
	if len(ps) > 0 {
		first = ps[0]
	}
	t.done(start, end, first, len(ps) > 0)
	return ps
}

var _ predict.MultiPredictor = (*timedMultiPredictor)(nil)

// registryCheck reports an error unless the traced registry holds the
// named solver's counters with activity, which proves AttachMetrics went
// through the decorator.
func registryCheck(snap *telemetry.Snapshot, prefix string) error {
	if snap == nil {
		return fmt.Errorf("traced run has no telemetry snapshot")
	}
	total := int64(0)
	for name, v := range snap.Counters {
		if len(name) > len(prefix) && name[:len(prefix)] == prefix {
			total += v
		}
	}
	if total == 0 {
		return fmt.Errorf("traced registry has no %s* counts: the decorator did not forward AttachMetrics", prefix)
	}
	return nil
}
