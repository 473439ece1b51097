package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"
	"unsafe"

	"predrm/internal/engine"
	"predrm/internal/obs"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/serve"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// Open-loop load on the wall-clock server.
const (
	// serveRate is the offered rate of the fixed-rate phase, requests per
	// wall second: about a third of the rate where this server saturates
	// on a two-core machine (5-9k req/s measured), so hiccups of the
	// machine do not tip it into queueing.
	serveRate = 2000.0
	// serveConns is the number of client connections (and sender
	// goroutines) sharing the load.
	serveConns = 2
	// latencyLimit is the p99 decision latency a ladder rung must meet.
	latencyLimit = 5 * time.Millisecond
	// backlogSlack is how much later the generator may send in a rung's
	// last quarter than in its first before the backlog counts as growing.
	backlogSlack = time.Millisecond
	// warmupShare of each phase's requests is left out of its latency
	// figures (connection set-up, first allocations); they are still
	// checked.
	warmupShare = 0.05
	// requestTimeout fails a request the server has not answered in time,
	// so a hung server ends the run instead of stalling it.
	requestTimeout = 10 * time.Second
	// windowSeconds is the length of the windows the fixed-rate phase's
	// latency quantiles are taken over: 1000 requests at serveRate, so a
	// window's p99 has ten samples beyond it.
	windowSeconds = 0.5
)

// ladder is the fixed set of offered rates serve.max_rate_rps is searched
// on.
var ladder = []float64{1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000, 11000, 12000, 13000, 14000, 16000, 18000, 20000, 24000}

// serveOpen replays a seeded VT trace against serve.New on loopback at a
// fixed offered rate, configured as rmserve is by default plus an online
// Markov predictor. Its traced run also climbs the rate ladder for
// serve.max_rate_rps.
type serveOpen struct{}

type serveInputs struct {
	set *task.Set
	tr  *trace.Trace
}

// A traced run spends phaseShare of its seconds on each of its plain and
// traced fixed-rate phases and rungs of rungShare each on the ladder.
const (
	phaseShare = 0.25
	rungShare  = 0.1
)

func (serveOpen) load(o options) (*serveInputs, error) {
	set, err := paperTaskSet()
	if err != nil {
		return nil, err
	}
	n := int(math.Max(serveRate*o.seconds, ladder[len(ladder)-1]*rungShare*o.seconds)) + 1
	tr, err := trace.Generate(set, trace.GenConfig{
		Length:           n,
		InterarrivalMean: interarrivalMean,
		InterarrivalStd:  interarrivalStd,
		Tightness:        trace.VeryTight,
	}, rng.New(o.seed))
	if err != nil {
		return nil, err
	}
	return &serveInputs{set: set, tr: tr}, nil
}

// server is one running service instance and its client.
type server struct {
	srv    *serve.Server
	client *http.Client
	url    string
	log    *spanLog
	pace   *pacer
}

// start builds a server whose wall clock runs at rate × the mean
// interarrival, so the engine sees the trace's own time scale at any
// offered rate. A non-nil log decorates the solver and predictor.
func (in *serveInputs) start(rate float64, log *spanLog) (*server, error) {
	markov, err := predict.NewMarkov(in.set.Len(), nil, 0)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	cfg := engine.Config{
		Platform:  in.set.Platform,
		TaskSet:   in.set,
		Solver:    heuristicWithCache(),
		Predictor: markov,
		Metrics:   reg,
		Tracer:    tracer,
	}
	if log != nil {
		cfg.Solver = wrapSolver(cfg.Solver, log, false)
		cfg.Predictor = wrapPredictor(markov, log)
	}
	srv, err := serve.New(serve.Config{
		Engine: cfg,
		Clock:  serve.NewWallClock(rate * interarrivalMean),
		Plane:  obs.NewPlane(obs.Options{Snapshot: reg.Snapshot, Tracer: tracer}),
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	pace, err := newPacer()
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	tp := &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true}
	client := &http.Client{Transport: tp, Timeout: requestTimeout}
	return &server{srv: srv, client: client, url: srv.URL() + "/v1/requests", log: log, pace: pace}, nil
}

// stop closes the client, shuts the server down and returns its result.
func (s *server) stop() (*engine.Result, error) {
	s.client.CloseIdleConnections()
	_ = s.pace.close() // only read from; nothing to flush
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return nil, fmt.Errorf("serve: shutdown: %w", err)
	}
	if err := s.srv.Err(); err != nil {
		return nil, fmt.Errorf("serve: engine: %w", err)
	}
	return s.srv.Result(), nil
}

// openLoop is one open-loop phase's record, per request.
type openLoop struct {
	n               int
	due, sent, recv []time.Duration // offsets from the phase start
	status          []int
	recs            []serve.DecisionRecord
	failed          int
	heapPeak        uint64
	start           time.Time
	result          *engine.Result
	decided         int
}

// drive offers the first n trace requests at rate per wall second: a
// pacer releases each request at its scheduled time to serveConns
// senders. Latency counts from the scheduled time, so time a request
// waits for a free connection is included.
func (s *server) drive(tr *trace.Trace, n int, rate float64) (*openLoop, error) {
	speed := rate * interarrivalMean
	ld := &openLoop{
		n: n, due: make([]time.Duration, n), sent: make([]time.Duration, n), recv: make([]time.Duration, n),
		status: make([]int, n), recs: make([]serve.DecisionRecord, n),
	}
	bodies := make([][]byte, n)
	// own is the heap this record, the bodies and the queue hold, left
	// out of the heap peak.
	perReq := 3*unsafe.Sizeof(time.Duration(0)) + unsafe.Sizeof(0) + unsafe.Sizeof(serve.DecisionRecord{}) +
		unsafe.Sizeof([]byte(nil)) + unsafe.Sizeof(0)
	own := uint64(n) * uint64(perReq)
	first := tr.Requests[0].Arrival
	for i := 0; i < n; i++ {
		req := tr.Requests[i]
		ld.due[i] = time.Duration((req.Arrival - first) / speed * float64(time.Second))
		b, err := json.Marshal(serve.SubmitRequest{Type: req.Type, Deadline: req.Deadline})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
		own += uint64(cap(b))
	}
	// Buffered for every request, so the pacer never blocks on a busy
	// sender: a backlog shows as send lag instead.
	queue := make(chan int, n)
	done := make(chan struct{})
	ld.start = time.Now()
	for c := 0; c < serveConns; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range queue {
				s.send(ld, i, bodies[i])
			}
		}()
	}
	var waitErr error
	for i := 0; i < n; i++ {
		if waitErr == nil {
			waitErr = s.pace.waitUntil(ld.start.Add(ld.due[i]))
		}
		queue <- i
	}
	close(queue)
	for c := 0; c < serveConns; c++ {
		<-done
	}
	// The server keeps every decision, so its heap peaks after the last
	// response, before shutdown.
	ld.heapPeak = liveHeap(own)
	res, err := s.stop()
	if err != nil {
		return nil, err
	}
	if waitErr != nil {
		return nil, waitErr
	}
	ld.result = res
	ld.failed += ld.check(s.srv.Decisions())
	return ld, nil
}

// send posts request i and records its timing and decision.
func (s *server) send(ld *openLoop, i int, body []byte) {
	sent := time.Now()
	ld.sent[i] = sent.Sub(ld.start)
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		ld.recv[i] = -1
		return
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	recv := time.Now()
	ld.recv[i] = recv.Sub(ld.start)
	if err != nil {
		return
	}
	ld.status[i] = resp.StatusCode
	if resp.StatusCode == http.StatusOK && json.Unmarshal(data, &ld.recs[i]) != nil {
		ld.status[i] = 0
	}
	if s.log != nil && ld.status[i] == http.StatusOK {
		s.log.rootSpan("serve.request", ld.recs[i].ID, sent, recv)
	}
}

// check counts failed requests: non-200 responses, ids that are not a
// dense 0..n-1 numbering, responses that differ from the server's own
// decision log, and deadline misses.
func (ld *openLoop) check(decisions []serve.DecisionRecord) int {
	failed := 0
	seen := make([]bool, ld.n)
	for i := 0; i < ld.n; i++ {
		if ld.status[i] != http.StatusOK {
			failed++
			continue
		}
		ld.decided++
		rec := ld.recs[i]
		switch {
		case rec.ID < 0 || rec.ID >= ld.n || seen[rec.ID]:
			failed++
		case rec.ID >= len(decisions) || decisions[rec.ID] != rec:
			failed++
			seen[rec.ID] = true
		default:
			seen[rec.ID] = true
		}
	}
	if len(decisions) != ld.decided {
		failed += abs(len(decisions) - ld.decided)
	}
	return failed + ld.result.DeadlineMisses
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (ld *openLoop) ok(i int) bool { return ld.status[i] == http.StatusOK && ld.recv[i] > 0 }

// stats returns the phase's latency samples past the warm-up: decision
// latency (scheduled send to response), send lag and round trip, in
// seconds; a failed request's decision latency is +Inf.
func (ld *openLoop) stats() (decision, lag, roundtrip samples) {
	for i := int(warmupShare * float64(ld.n)); i < ld.n; i++ {
		lag.addDur(ld.sent[i] - ld.due[i])
		decision.add(ld.decision(i))
		if ld.ok(i) {
			roundtrip.addDur(ld.recv[i] - ld.sent[i])
		}
	}
	return decision, lag, roundtrip
}

// decision returns request i's decision latency in seconds: from its
// scheduled send to its response, +Inf when it failed.
func (ld *openLoop) decision(i int) float64 {
	if !ld.ok(i) {
		return math.Inf(1)
	}
	return (ld.recv[i] - ld.due[i]).Seconds()
}

// windowed returns the median over consecutive windows of size requests
// (past the warm-up) of each window's decision-latency p50 and p99. The
// median window keeps a single stall from deciding a run's figures; a
// stall still shows in every window it hits.
func (ld *openLoop) windowed(size int) (p50, p99 float64) {
	var p50s, p99s []float64
	var w samples
	from := int(warmupShare * float64(ld.n))
	if size > ld.n-from {
		size = ld.n - from
	}
	for i := from; i < ld.n; i++ {
		w.add(ld.decision(i))
		if w.n == size {
			q := w.quantiles(0.5, 0.99)
			p50s, p99s = append(p50s, q[0]), append(p99s, q[1])
			w.reset()
		}
	}
	return median(p50s), median(p99s)
}

// throughput is decided requests per wall second, from the first
// scheduled send to the last response.
func (ld *openLoop) throughput() float64 {
	var last time.Duration
	for i := 0; i < ld.n; i++ {
		if ld.recv[i] > last {
			last = ld.recv[i]
		}
	}
	return ratio(float64(ld.decided), last.Seconds())
}

// lagGrowth is how much later the generator sent in the phase's last
// quarter than in its first (median lag of each quarter).
func (ld *openLoop) lagGrowth() time.Duration {
	q := ld.n / 4
	lagAt := func(from, to int) float64 {
		v := make([]float64, 0, to-from)
		for i := from; i < to; i++ {
			v = append(v, float64(ld.sent[i]-ld.due[i]))
		}
		return median(v)
	}
	return time.Duration(lagAt(ld.n-q, ld.n) - lagAt(0, q))
}

// phase runs one fresh server at rate for seconds.
func (in *serveInputs) phase(rate, seconds float64, log *spanLog) (*openLoop, error) {
	s, err := in.start(rate, log)
	if err != nil {
		return nil, err
	}
	n := int(rate * seconds)
	if n > in.tr.Len() {
		n = in.tr.Len()
	}
	ld, err := s.drive(in.tr, n, rate)
	if err != nil {
		return nil, err
	}
	return ld, nil
}

// rung is one ladder step's verdict. Its excess is how far the binding
// criterion is past its limit, as a share of the limit: the p99 decision
// latency against latencyLimit, and the growth of the generator's lag
// against backlogSlack. A rung passes when nothing failed and excess ≤ 0.
type rung struct {
	rate, excess float64
	failed       bool
}

func (r rung) pass() bool { return !r.failed && r.excess <= 0 }

func (in *serveInputs) rung(rate, seconds float64) (rung, int, int, error) {
	ld, err := in.phase(rate, seconds, nil)
	if err != nil {
		return rung{}, 0, 0, err
	}
	_, p99 := ld.windowed(int(rate * seconds / 4))
	return ld.verdict(rate, p99), ld.n, ld.failed, nil
}

// verdict judges a phase at rate with windowed p99 decision latency p99.
func (ld *openLoop) verdict(rate, p99 float64) rung {
	excess := math.Max(p99/latencyLimit.Seconds(), float64(ld.lagGrowth())/float64(backlogSlack)) - 1
	return rung{rate: rate, excess: excess, failed: ld.failed > 0}
}

// maxRate searches the ladder from the fixed-rate phase's verdict: up
// while rungs pass, down while they fail. The result interpolates between
// the highest passing rung and the next one up to where their excess
// crosses zero, so it moves smoothly rather than by whole rungs.
func (in *serveInputs) maxRate(fixed rung, seconds float64) (float64, int, int, error) {
	idx := sort.SearchFloat64s(ladder, fixed.rate)
	attempted, failed := 0, 0
	cur := fixed
	var lo, hi *rung
	for {
		c := cur
		if c.pass() {
			lo = &c
			if idx+1 >= len(ladder) || hi != nil {
				break
			}
			idx++
		} else {
			hi = &c
			if idx == 0 || lo != nil {
				break
			}
			idx--
		}
		r, n, f, err := in.rung(ladder[idx], seconds)
		if err != nil {
			return 0, 0, 0, err
		}
		attempted += n
		failed += f
		cur = r
	}
	switch {
	case lo == nil:
		return 0, attempted, failed, nil
	case hi == nil || hi.failed || math.IsInf(hi.excess, 1):
		return lo.rate, attempted, failed, nil
	}
	return lo.rate + (hi.rate-lo.rate)*lo.excess/(lo.excess-hi.excess), attempted, failed, nil
}

// setup builds inputs and a started server reps times (each server is
// shut down again) and returns the last inputs and the median time.
func (w serveOpen) setup(o options, reps int) (*serveInputs, float64, error) {
	times := make([]float64, 0, reps)
	var in *serveInputs
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		var err error
		if in, err = w.load(o); err != nil {
			return nil, 0, err
		}
		s, err := in.start(serveRate, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if _, err := s.stop(); err != nil {
			return nil, 0, err
		}
	}
	return in, median(times), nil
}

func (w serveOpen) run(o options) (*report, error) {
	in, setupS, err := w.setup(o, setupReps)
	if err != nil {
		return nil, err
	}
	if o.traced {
		return in.runTraced(o.seconds)
	}
	ld, err := in.phase(serveRate, o.seconds, nil)
	if err != nil {
		return nil, err
	}
	p50, _ := ld.windowed(int(serveRate * windowSeconds))
	res := ld.result
	rep := newReport(ld.n, ld.failed)
	rep.set("setup_s", setupS)
	rep.set("activations_per_s", ld.throughput())
	rep.set("decision_p50_us", p50*1e6)
	rep.set("rejection_pct", res.RejectionPct())
	rep.set("energy_per_accepted_j", ratio(res.TotalEnergy, float64(res.Accepted)))
	rep.set("heap_peak_mb", mb(ld.heapPeak))
	return rep, nil
}

// runTraced runs a plain and a traced fixed-rate phase, then climbs the
// rate ladder (untraced) for serve.max_rate_rps.
func (in *serveInputs) runTraced(seconds float64) (*report, error) {
	plain, err := in.phase(serveRate, phaseShare*seconds, nil)
	if err != nil {
		return nil, err
	}
	log := newSpanLog()
	traced, err := in.phase(serveRate, phaseShare*seconds, log)
	if err != nil {
		return nil, err
	}
	plainP50, plainP99 := plain.windowed(int(serveRate * windowSeconds))
	maxRate, n, f, err := in.maxRate(plain.verdict(serveRate, plainP99), rungShare*seconds)
	if err != nil {
		return nil, err
	}
	rep := newReport(plain.n+traced.n+n, plain.failed+traced.failed+f)
	rep.set("serve.max_rate_rps", maxRate)
	rep.log = log
	snap := []*telemetry.Snapshot{traced.result.Telemetry}
	if err := registryCheck(snap[0], "core.cache."); err != nil {
		rep.fail(traced.n, err)
	}
	rep.set("engine.replan_us", histMean(snap, "sim.replan_seconds")*1e6)
	rep.set("engine.advance_us", histMean(snap, "sim.advance_seconds")*1e6)
	rep.set("core.feascache_hit_ratio", counterRatio(snap, "core.cache.hits", "core.cache.misses"))
	log.requests = traced.decided
	rep.layerMetrics(log)
	rep.replay(log.captures)

	_, lag, rt := traced.stats()
	q := rt.quantiles(0.5, 0.99)
	rep.set("serve.roundtrip_us_p50", q[0]*1e6)
	rep.set("serve.roundtrip_us_p99", q[1]*1e6)
	q = lag.quantiles(0.5, 0.99)
	rep.set("serve.send_lag_us_p50", q[0]*1e6)
	rep.set("serve.send_lag_us_p99", q[1]*1e6)
	var overhead samples
	for i := int(warmupShare * float64(traced.n)); i < traced.n; i++ {
		if traced.ok(i) {
			inside := log.reqSolvePredict[traced.recs[i].ID]
			overhead.add((traced.recv[i] - traced.sent[i]).Seconds() - inside)
		}
	}
	rep.set("serve.overhead_us", overhead.quantiles(0.5)[0]*1e6)

	tracedP50, _ := traced.windowed(int(serveRate * windowSeconds))
	rep.tracingOverhead(plain.throughput(), traced.throughput(), plainP50, plainP99, tracedP50)
	return rep, nil
}
