// The activation pipeline: the one admission protocol every driver runs.
//
// The paper's RM runs one protocol per arrival (Sec 4): take the arrival
// in, charge the decision overhead, build S̄ with the forecast, decide,
// and replan. The engine implements it once, as a batch admission epoch
// built from stages: intake every arrival of the epoch (advancing
// execution through it — arrivals queue, executing nothing, since they
// are not yet admitted), charge the overhead once, forecast once, decide
// each request sequentially at the epoch close, then install the last
// decision's plan with one replan. Earlier admissions of an epoch are
// active state for later ones, so the decision sequence is the paper's
// protocol evaluated at a single deferred decision time (DESIGN.md §12
// discusses how this differs from the paper's semantics).
//
// One-by-one admission is not a second path: Activate is the singleton
// epoch closing at its own arrival, which is exactly the paper's
// protocol, so a zero batch window reproduces it by construction.
package engine

import (
	"fmt"
	"math"
	"time"

	"predrm/internal/core"
	"predrm/internal/predict"
	"predrm/internal/sched"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// Activate runs one full RM activation for request req with driver-issued
// id idx: the singleton epoch closing at req's own arrival. Ids must be
// issued densely from 0 in activation order (they index the per-request
// records).
func (r *Engine) Activate(idx int, req trace.Request) (Outcome, error) {
	reqs := [1]trace.Request{req}
	var outs [1]Outcome
	if err := r.epoch(idx, reqs[:], req.Arrival, outs[:]); err != nil {
		return Outcome{}, err
	}
	return outs[0], nil
}

// ActivateEpoch admits reqs — arrival-ordered, with dense driver ids
// startIdx, startIdx+1, ... — as one batch epoch that closes at time
// close. Decisions are taken sequentially at max(now, close + overhead),
// where the per-activation overhead (ExtraOverhead, predictor overhead,
// OverheadHook) is charged once per epoch rather than once per arrival:
// that is the amortisation batching buys.
//
// With a predictor, every request is observed in arrival order and one
// forecast is made at the close; the predicted jobs constrain every
// decision of the epoch. State probes fire once per decision. The last
// one fires after the epoch's replan, so it reports the reservations the
// epoch installed; earlier probes of a multi-request epoch still show the
// pre-epoch reservations, since the plan is rebuilt only at the close.
func (r *Engine) ActivateEpoch(startIdx int, reqs []trace.Request, close float64) ([]Outcome, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	outs := make([]Outcome, len(reqs))
	if err := r.epoch(startIdx, reqs, close, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// epoch runs the pipeline over reqs, writing one outcome per request into
// outs (len(outs) == len(reqs)). The batch is validated whole before any
// state changes.
func (r *Engine) epoch(startIdx int, reqs []trace.Request, close float64, outs []Outcome) error {
	if err := checkBatch(startIdx, len(r.rec), reqs, r.cfg.TaskSet.Len()); err != nil {
		return err
	}
	for i, req := range reqs {
		if err := r.intake(startIdx+i, req); err != nil {
			return err
		}
	}

	// One overhead charge for the whole epoch.
	overhead := r.cfg.ExtraOverhead
	if r.cfg.Predictor != nil {
		overhead += r.cfg.Predictor.Overhead()
	}
	if r.cfg.OverheadHook != nil {
		extra := r.cfg.OverheadHook(startIdx, reqs[0].Arrival)
		if !(extra >= 0) || math.IsInf(extra, 1) {
			return fmt.Errorf("engine: overhead hook returned %v for request %d (must be finite and non-negative)", extra, startIdx)
		}
		overhead += extra
	}
	if err := r.advanceTo(math.Max(r.now, close+overhead)); err != nil {
		return err
	}
	if r.cfg.Audit {
		if err := r.auditState(startIdx); err != nil {
			return err
		}
	}

	r.forecast(startIdx)
	var ghosts []ghostRef
	last := len(reqs) - 1
	for i, req := range reqs {
		var err error
		if outs[i], ghosts, err = r.decide(startIdx+i, req, ghosts); err != nil {
			return err
		}
		if i < last {
			r.probe(startIdx + i)
		}
	}
	if err := r.install(startIdx+last, ghosts); err != nil {
		return err
	}
	r.probe(startIdx + last)
	return nil
}

// checkBatch validates a batch against the engine's next id want and a
// task set of types types: dense ids, known types, finite arrivals,
// positive deadlines and arrival order. Drivers call it before touching
// any state, so a bad request fails the whole batch cleanly.
func checkBatch(startIdx, want int, reqs []trace.Request, types int) error {
	if startIdx != want {
		return fmt.Errorf("engine: activation id %d out of order (want %d)", startIdx, want)
	}
	for i, req := range reqs {
		idx := startIdx + i
		switch {
		case req.Type < 0 || req.Type >= types:
			return fmt.Errorf("engine: request %d references unknown type %d", idx, req.Type)
		case math.IsNaN(req.Arrival) || math.IsInf(req.Arrival, 0):
			return fmt.Errorf("engine: request %d has non-finite arrival %v", idx, req.Arrival)
		case !(req.Deadline > 0): // NaN fails > 0
			return fmt.Errorf("engine: request %d has non-positive deadline %v", idx, req.Deadline)
		case i > 0 && req.Arrival < reqs[i-1].Arrival:
			return fmt.Errorf("engine: request %d arrives before request %d", idx, idx-1)
		}
	}
	return nil
}

// intake records one arrival, advances execution through it and feeds it
// to the predictor. Nothing is admitted yet.
func (r *Engine) intake(idx int, req trace.Request) error {
	r.rec = append(r.rec, JobRecord{
		ID:          idx,
		Type:        req.Type,
		Arrival:     req.Arrival,
		AbsDeadline: req.Arrival + req.Deadline,
	})
	r.res.Requests++
	r.ins.requests.Inc()
	if err := r.advanceTo(req.Arrival); err != nil {
		return err
	}
	// Emitted after advancing so the stream stays time-ordered: the
	// execution events between two arrivals carry earlier timestamps.
	if r.trc != nil {
		e := telemetry.NewEvent(req.Arrival, telemetry.EvArrival)
		e.Req = idx
		e.Task = req.Type
		e.Value = req.Arrival + req.Deadline
		r.trc.Emit(e)
	}
	if r.cfg.Predictor != nil {
		r.cfg.Predictor.Observe(idx, req)
	}
	return nil
}

// forecast makes the epoch's one prediction at the decision time, leaving
// the valid forecasts in r.predJobs as planning jobs for every decision.
func (r *Engine) forecast(req int) {
	r.predJobs = r.predJobs[:0]
	if r.cfg.Predictor == nil {
		return
	}
	if mp, ok := r.cfg.Predictor.(predict.MultiPredictor); ok && r.cfg.Lookahead > 1 {
		for step, pred := range mp.PredictK(r.cfg.Lookahead) {
			r.addForecast(req, step, pred)
		}
	} else if pred, ok := r.cfg.Predictor.Predict(); ok {
		r.addForecast(req, 0, pred)
	}
}

// addForecast turns forecast step pred into a predicted planning job,
// dropping forecasts the task set cannot resolve.
func (r *Engine) addForecast(req, step int, pred predict.Prediction) {
	if pred.Type < 0 || pred.Type >= r.cfg.TaskSet.Len() || pred.Deadline <= 0 {
		return
	}
	pj := sched.NewJob(-1-step, r.cfg.TaskSet.Type(pred.Type), pred.Arrival, pred.Deadline)
	pj.Predicted = true
	r.predJobs = append(r.predJobs, pj)
	r.ins.predictions.Inc()
	if r.trc != nil {
		e := telemetry.NewEvent(r.now, telemetry.EvPrediction)
		e.Req = req
		e.Task = pred.Type
		e.Value = pred.Arrival
		r.trc.Emit(e)
	}
}

// decide assembles the S̄ problem for request idx (active jobs, the
// arriving job, upcoming critical releases, the forecast), runs the
// admission protocol and applies the result. On admission it returns the
// decision's mapped forecasts, reusing ghosts' storage; the epoch
// installs them only if this is its last decision.
func (r *Engine) decide(idx int, req trace.Request, ghosts []ghostRef) (Outcome, []ghostRef, error) {
	newJob := sched.NewJob(idx, r.cfg.TaskSet.Type(req.Type), req.Arrival, req.Deadline)
	jobs := make([]*sched.Job, 0, len(r.active)+1+len(r.predJobs))
	jobs = append(jobs, r.active...)
	newIdx := len(jobs)
	jobs = append(jobs, newJob)
	jobs = append(jobs, r.upcomingCritical(jobs)...)
	jobs = append(jobs, r.predJobs...)

	problem := &sched.Problem{
		Platform: r.cfg.Platform,
		Time:     r.now,
		Jobs:     jobs,
		Policy:   r.cfg.Policy,
	}
	if r.trc != nil {
		e := telemetry.NewEvent(r.now, telemetry.EvSolverInvoked)
		e.Req = idx
		e.Task = req.Type
		e.Value = float64(len(jobs))
		r.trc.Emit(e)
	}
	measuring := r.trc != nil || r.ins.solverSec != nil
	var solveStart time.Time
	if measuring {
		solveStart = time.Now()
	}
	r.prov.Reset()
	decision, admitted, solveErr := core.AdmitProv(r.cfg.Solver, problem, r.prov)
	var wall time.Duration
	if measuring {
		wall = time.Since(solveStart)
		r.ins.solverSec.Observe(wall.Seconds())
	}
	if r.trc != nil {
		e := telemetry.NewEvent(r.now, telemetry.EvSolverReturned)
		e.Req = idx
		e.WallNs = wall.Nanoseconds()
		switch {
		case solveErr != nil:
			e.Reason = telemetry.ReasonError
		case admitted:
			e.Reason = telemetry.ReasonFeasible
			e.Value = decision.Energy
		default:
			e.Reason = telemetry.ReasonInfeasible
		}
		r.trc.Emit(e)
	}
	if solveErr != nil {
		// A fallible solver failed outright (core.FallibleSolver) with no
		// resilience chain to absorb it. Report the failure with its
		// request coordinates and abort the run — continuing would
		// silently convert a solver outage into rejections.
		return Outcome{}, nil, fmt.Errorf("engine: solver failed at request %d (t=%.6f): %w", idx, r.now, solveErr)
	}
	if !admitted {
		r.res.Rejected++
		r.ins.rejected.Inc()
		r.reasonCounter("sim.reject_reason.", telemetry.ReasonNoFeasibleMapping)
		if r.trc != nil {
			e := telemetry.NewEvent(r.now, telemetry.EvReject)
			e.Req = idx
			e.Task = req.Type
			e.Reason = telemetry.ReasonNoFeasibleMapping
			r.trc.Emit(e)
		}
		r.emitDecision(idx, req.Type, sched.Unmapped, telemetry.ReasonNoFeasibleMapping, 0)
		// Keep the standing mappings; the epoch's replan drops any stale
		// reservation (its request has now arrived).
		return Outcome{
			Req:      idx,
			Time:     r.now,
			Resource: sched.Unmapped,
			Reason:   telemetry.ReasonNoFeasibleMapping,
		}, nil, nil
	}
	r.res.Accepted++
	r.ins.accepted.Inc()
	r.rec[idx].Accepted = true
	r.apply(problem, decision, newJob)
	ghosts = ghosts[:0]
	for i, j := range problem.Jobs {
		if j.Predicted && decision.Mapping[i] != sched.Unmapped {
			ghosts = append(ghosts, ghostRef{job: j, res: decision.Mapping[i]})
		}
	}
	admitReason := telemetry.ReasonPlain
	switch {
	case len(ghosts) > 0:
		admitReason = telemetry.ReasonWithReservation
	case len(r.predJobs) > 0:
		admitReason = telemetry.ReasonPredictionDropped
	}
	r.reasonCounter("sim.admit_reason.", admitReason)
	if r.trc != nil {
		e := telemetry.NewEvent(r.now, telemetry.EvAdmit)
		e.Req = idx
		e.Task = req.Type
		e.Res = decision.Mapping[newIdx]
		e.Reason = admitReason
		r.trc.Emit(e)
	}
	r.emitDecision(idx, req.Type, decision.Mapping[newIdx], admitReason, decision.Energy)
	r.ins.activeJobs.Observe(float64(len(r.active)))
	r.ins.activePeak.Set(float64(len(r.active)))
	return Outcome{
		Req:      idx,
		Time:     r.now,
		Accepted: true,
		Resource: decision.Mapping[newIdx],
		Reason:   admitReason,
		Energy:   decision.Energy,
	}, ghosts, nil
}

// install rebuilds the standing schedule once, reserving capacity for the
// last decision's mapped forecasts (ghosts, reported under request idx).
// Earlier decisions' forecasts were planning constraints whose decisions
// are already superseded, exactly as each one-by-one replan replaces the
// previous reservations.
func (r *Engine) install(idx int, ghosts []ghostRef) error {
	for _, g := range ghosts {
		r.ins.resvPlanned.Inc()
		if r.cfg.WorkConserving {
			r.ins.resvBackfilled.Inc()
		}
		if r.trc != nil {
			e := telemetry.NewEvent(r.now, telemetry.EvReservationPlanned)
			e.Req = idx
			e.Res = g.res
			e.Value = g.job.Arrival
			r.trc.Emit(e)
			if r.cfg.WorkConserving {
				e.Type = telemetry.EvReservationBackfilled
				r.trc.Emit(e)
			}
		}
	}
	return r.replan(ghosts)
}
