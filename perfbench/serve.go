package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"clustervp"
	"clustervp/internal/obs"
)

// clients is the closed loop's width: two callers that each wait for
// their reply before sending the next request.
const clients = 2

// sampleEvery picks the fresh operations re-simulated locally after
// the run for a byte-identity check against the served result.
const sampleEvery = 16

func runServeBox(ctx context.Context, e env) (*outcome, error) {
	return (&serveRun{e: e, fleet: false}).run(ctx)
}

// runServeFleet drives the fleet traffic. It runs only as a traced
// probe (see probes): its memo-hit median falls between a queued and an
// unqueued mode, so it cannot carry the end-to-end metrics.
func runServeFleet(ctx context.Context, e env) (*outcome, error) {
	return (&serveRun{e: e, fleet: true}).run(ctx)
}

// serveRun is one serve workload run: clusterd processes started from
// empty data directories, a closed loop of clients, and the checks
// after it.
type serveRun struct {
	e     env
	fleet bool
	o     outcome

	procs    []*proc
	front    string   // the URL clients talk to
	replicas []string // URLs of the processes that simulate

	traces []string // replay inputs, generated before set-up

	mu      sync.Mutex
	seq     *opSeq
	done    map[int]chan struct{} // fresh ordinal → closed on completion
	digests map[int]string        // fresh ordinal → result digest
	reqs    map[int]jobRequest    // fresh ordinal → the job it submitted
	recs    []opRecord

	spans       *obs.Collector // traced runs: the benchmark's own spans
	serverSpans []obs.Span
}

// opRecord is one completed operation.
type opRecord struct {
	op      op
	start   time.Time
	latency time.Duration
	upload  time.Duration
	records uint64 // replay: records the upload reported
	st      jobStatus
	digest  string
	instrs  uint64
	traced  bool
	cycle   time.Duration // until the client is ready for its next operation
	err     error
}

// engineStats is the part of a replica's /v1/statsz the checks use.
type engineStats struct {
	Engine struct {
		SimulationsExecuted int64 `json:"simulations_executed"`
	} `json:"engine"`
	Cache struct {
		Hits      int64 `json:"hits"`
		PutErrors int64 `json:"put_errors"`
	} `json:"cache"`
}

// coordinatorStats is the part of a coordinator's /v1/statsz the
// fleet metrics use.
type coordinatorStats struct {
	Coordinator struct {
		Resubmits int64 `json:"resubmits"`
	} `json:"coordinator"`
	Replicas []struct {
		Dispatched int64 `json:"dispatched"`
	} `json:"replicas"`
}

func (s *serveRun) run(ctx context.Context) (*outcome, error) {
	defer func() { stopAll(s.procs) }()
	if !s.fleet {
		if err := s.makeTraces(); err != nil {
			return nil, err
		}
	}
	setups := make([]float64, s.e.setupReps())
	for rep := range setups {
		stopAll(s.procs)
		s.procs = nil
		t0 := time.Now()
		if err := s.start(ctx, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if err := s.warm(ctx, rep); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[rep] = time.Since(t0).Seconds()
	}
	o := &s.o
	o.set("setup_s", median(setups))

	before, err := s.replicaStats(ctx)
	if err != nil {
		return nil, err
	}
	var coBefore coordinatorStats
	if s.fleet {
		if err := fetchStats(ctx, s.front, &coBefore); err != nil {
			return nil, err
		}
	}
	if s.e.traced {
		s.spans = obs.NewCollector("perfbench", 1<<16)
	}
	s.seq = newOpSeq(s.e.seed, len(s.traces))
	s.done = map[int]chan struct{}{}
	s.digests = map[int]string{}
	s.reqs = map[int]jobRequest{}
	t0 := time.Now()
	deadline := t0.Add(s.e.seconds)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.client(ctx, t0, deadline)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(s.recs) == 0 {
		return nil, errors.New("no operation completed inside the measured window")
	}
	var end time.Time
	for _, r := range s.recs {
		if e := r.start.Add(r.latency); e.After(end) {
			end = e
		}
	}
	window := end.Sub(t0)

	after, err := s.replicaStats(ctx)
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, p := range s.procs {
		mb, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += mb
	}
	var coAfter coordinatorStats
	if s.fleet {
		if err := fetchStats(ctx, s.front, &coAfter); err != nil {
			return nil, err
		}
	}
	stopAll(s.procs)
	s.procs = nil

	if s.seq.replays == len(s.traces) && !s.fleet {
		o.problem("the run used all %d replay inputs; raise replayBudget", len(s.traces))
	}
	s.check(before, after)
	s.checkLocal()
	if !s.e.traced {
		o.set("peak_rss_mb", rss)
		o.set("jobs_per_s", float64(len(s.recs))/window.Seconds())
		s.latencies(window)
		return o, nil
	}
	s.layers(window, before, after, coBefore, coAfter)
	if s.e.probe {
		return o, nil
	}
	return o, runLadder(s.e, o)
}

// makeTraces writes the replay inputs: one .cvt per replay the run can
// reach, each a different kernel instance, so every upload is new
// content. This is input generation, outside set-up and the window.
func (s *serveRun) makeTraces() error {
	dir, err := mkdirTemp(s.e, "replay")
	if err != nil {
		return err
	}
	n := replayBudget(s.e.seconds)
	s.traces = make([]string, n)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := w; r < n; r += clients {
				k := replayKey(s.e.seed, r)
				s.traces[r] = filepath.Join(dir, fmt.Sprintf("r%d.cvt", r))
				if _, err := clustervp.WriteKernelTrace(s.traces[r], k.kernel, 1, k.kseed); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// replayBudget bounds the replays one run can reach. The reference
// machine's speed varies about twofold from hour to hour, and a run
// made 5 to 12 replays a second, so 24 a second leaves room for a
// faster host.
func replayBudget(d time.Duration) int { return int(d.Seconds())*24 + 40 }

// start launches the workload's clusterd processes over an empty data
// directory and waits until each answers /v1/healthz.
func (s *serveRun) start(ctx context.Context, rep int) error {
	data, err := mkdirTemp(s.e, fmt.Sprintf("data-%d", rep))
	if err != nil {
		return err
	}
	launch := func(name string, args ...string) (*proc, error) {
		p, err := startClusterd(s.e.clusterd, filepath.Join(s.e.work, fmt.Sprintf("%s-%d.log", name, rep)), args...)
		if err != nil {
			return nil, err
		}
		s.procs = append(s.procs, p)
		return p, p.waitHealthy(ctx)
	}
	if !s.fleet {
		p, err := launch("clusterd", "-data", data, "-workers", fmt.Sprint(workers))
		if err != nil {
			return err
		}
		s.front, s.replicas = p.base, []string{p.base}
		return nil
	}
	// Two one-worker replicas share one data directory, as a fleet's
	// replicas share one result cache.
	s.replicas = nil
	for i := 0; i < 2; i++ {
		p, err := launch(fmt.Sprintf("replica%d", i), "-data", data, "-workers", "1")
		if err != nil {
			return err
		}
		s.replicas = append(s.replicas, p.base)
	}
	p, err := launch("coordinator", "-coordinator", "-replicas", strings.Join(s.replicas, ","))
	if err != nil {
		return err
	}
	s.front = p.base
	return nil
}

// warm runs set-up's warm jobs: every machine on two small kernels, on
// inputs the measured traffic never uses.
func (s *serveRun) warm(ctx context.Context, rep int) error {
	c := newAPIClient(s.front)
	defer c.close()
	for _, kernel := range []string{"pgpenc", "cjpeg"} {
		for _, m := range machines {
			st, err := c.submit(ctx, jobRequest{Machine: m.spec, Kernel: kernel, Scale: 1, Seed: kernelSeed(s.e.seed, famWarm, rep)}, "")
			if err != nil {
				return err
			}
			ev, err := c.wait(ctx, st.ID)
			if err != nil {
				return err
			}
			if ev.State != "done" {
				return fmt.Errorf("warm job %s: %s %s", st.ID, ev.State, ev.Error)
			}
		}
	}
	return nil
}

// client is one closed-loop caller: take the next operation, run it,
// record it, until the window closes.
func (s *serveRun) client(ctx context.Context, t0, deadline time.Time) {
	c := newAPIClient(s.front)
	defer c.close()
	for time.Now().Before(deadline) && ctx.Err() == nil {
		s.mu.Lock()
		o := s.seq.next()
		var wait chan struct{}
		if o.kind == opRepeat {
			wait = s.done[o.fresh]
		} else {
			s.done[o.fresh] = make(chan struct{})
		}
		s.mu.Unlock()
		var req jobRequest
		if wait != nil {
			<-wait // a repeat must find its job finished, or it is not a hit
			s.mu.Lock()
			req = s.reqs[o.fresh]
			s.mu.Unlock()
		}
		// Traced runs alternate one-second windows with and without
		// the benchmark's tracing, to measure what tracing costs.
		traced := s.e.traced && int(time.Since(t0)/time.Second)%2 == 1
		rec, req := s.exec(ctx, c, o, req, traced)
		rec.cycle = time.Since(rec.start)
		s.mu.Lock()
		s.recs = append(s.recs, rec)
		if o.kind != opRepeat {
			s.digests[o.fresh] = rec.digest
			s.reqs[o.fresh] = req
			close(s.done[o.fresh])
		}
		s.mu.Unlock()
	}
}

// exec runs one operation and returns it with the job it submitted; a
// repeat resubmits req, its original's job. Latency runs from the
// first request to the terminal event; fetching the result afterwards
// is not timed.
func (s *serveRun) exec(ctx context.Context, c *apiClient, o op, req jobRequest, traced bool) (opRecord, jobRequest) {
	rec := opRecord{op: o, traced: traced}
	var root *obs.ActiveSpan
	tp := ""
	if traced {
		root = s.spans.StartRoot("bench.op", obs.SpanContext{})
		root.SetAttr("kind", o.kind.String())
		root.SetAttr("job", o.key.String())
		tp = root.Context().Traceparent()
	}
	rec.start = time.Now()
	switch o.kind {
	case opReplay:
		req = jobRequest{Machine: machines[o.key.m].spec}
		sp := root.StartChild("bench.upload")
		digest, n, err := c.upload(ctx, s.traces[o.index], tp)
		sp.End()
		rec.upload, rec.records = time.Since(rec.start), n
		if err != nil {
			rec.err = err
			root.End()
			return rec, req
		}
		req.TraceDigest = digest
	case opFresh:
		req = jobRequest{Machine: machines[o.key.m].spec, Kernel: o.key.kernel, Scale: 1, Seed: o.key.kseed}
	}
	sp := root.StartChild("bench.submit")
	st, err := c.submit(ctx, req, tp)
	sp.End()
	if err != nil {
		rec.err = err
		root.End()
		return rec, req
	}
	sp = root.StartChild("bench.wait")
	ev, err := c.wait(ctx, st.ID)
	sp.End()
	rec.latency = time.Since(rec.start)
	root.End()
	if err == nil && ev.State != "done" {
		err = fmt.Errorf("job %s %s: %s", st.ID, ev.State, ev.Error)
	}
	if err != nil {
		rec.err = err
		return rec, req
	}
	rec.st, rec.err = c.status(ctx, st.ID)
	if rec.err == nil {
		rec.digest, rec.instrs, rec.err = resultOf(rec.st)
	}
	if traced {
		spans, err := c.jobSpans(ctx, st.ID)
		if err != nil && rec.err == nil {
			rec.err = err
		}
		s.mu.Lock()
		s.serverSpans = append(s.serverSpans, spans...)
		s.mu.Unlock()
	}
	return rec, req
}

// resultOf digests a done job's results and reads its committed
// instruction count.
func resultOf(st jobStatus) (string, uint64, error) {
	if st.State != "done" || len(st.Results) == 0 {
		return "", 0, fmt.Errorf("job %s: state %s without results", st.ID, st.State)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, st.Results); err != nil {
		return "", 0, fmt.Errorf("job %s: results: %w", st.ID, err)
	}
	var r struct{ Instructions uint64 }
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		return "", 0, fmt.Errorf("job %s: results: %w", st.ID, err)
	}
	return resultDigest(buf.Bytes()), r.Instructions, nil
}

// replicaStats sums the simulating processes' engine and cache
// counters.
func (s *serveRun) replicaStats(ctx context.Context) (engineStats, error) {
	var sum engineStats
	for _, base := range s.replicas {
		var st engineStats
		if err := fetchStats(ctx, base, &st); err != nil {
			return sum, err
		}
		sum.Engine.SimulationsExecuted += st.Engine.SimulationsExecuted
		sum.Cache.Hits += st.Cache.Hits
		sum.Cache.PutErrors += st.Cache.PutErrors
	}
	return sum, nil
}

// check verifies every operation: it finished done; it committed as
// many instructions as its input has records; a repeat returned its
// original's exact bytes; at the default seed the result matches the
// committed digest; and the servers simulated exactly once per fresh
// operation and never failed a cache write.
func (s *serveRun) check(before, after engineStats) {
	o := &s.o
	rc := newRecordCounter(s.e.work)
	fresh := 0
	for _, r := range s.recs {
		o.attempted++
		if r.op.kind != opRepeat {
			fresh++
		}
		if err := s.checkOne(rc, r); err != nil {
			o.failed++
			o.problem("%s %s: %v", r.op.kind, r.op.key, err)
		}
	}
	if sims := after.Engine.SimulationsExecuted - before.Engine.SimulationsExecuted; sims != int64(fresh) {
		o.problem("servers ran %d simulations (and served %d cache hits) for %d fresh operations",
			sims, after.Cache.Hits-before.Cache.Hits, fresh)
	}
	if n := after.Cache.PutErrors; n != 0 {
		o.problem("%d result-cache writes failed", n)
	}
}

func (s *serveRun) checkOne(rc *recordCounter, r opRecord) error {
	if r.err != nil {
		return r.err
	}
	var want uint64
	switch r.op.kind {
	case opReplay:
		want = r.records
	default:
		n, err := rc.count(r.op.key.kernel, r.op.key.kseed)
		if err != nil {
			return err
		}
		want = n
	}
	if r.instrs != want {
		return fmt.Errorf("committed %d instructions, input has %d", r.instrs, want)
	}
	if r.op.kind == opRepeat {
		if orig := s.digests[r.op.fresh]; r.digest != orig {
			return fmt.Errorf("repeat returned digest %s, original %s", r.digest, orig)
		}
	}
	if d := expectedDigest(s.e.seed, r.op.family, r.op.index, r.op.job); d != "" && r.digest != d {
		return fmt.Errorf("result digest %s, committed %s", r.digest, d)
	}
	return nil
}

// checkLocal re-simulates every sampleEvery-th fresh operation through
// the public API after the servers have stopped, and requires the
// served bytes to be identical.
func (s *serveRun) checkLocal() {
	var jobs []clustervp.Job
	var want []opRecord
	for _, r := range s.recs {
		if r.op.kind == opRepeat || r.op.fresh%sampleEvery != 0 || r.err != nil {
			continue
		}
		k := r.op.key
		j := clustervp.Job{Config: machines[k.m].cfg, Kernel: k.kernel, Scale: 1, Seed: k.kseed}
		if r.op.kind == opReplay {
			j = clustervp.Job{Config: machines[k.m].cfg, Trace: s.traces[r.op.index]}
		}
		jobs = append(jobs, j)
		want = append(want, r)
	}
	for i, res := range clustervp.NewEngine(workers).Run(jobs) {
		r := want[i]
		switch {
		case res.Err != nil:
			s.o.failed++
			s.o.problem("%s %s: local run: %v", r.op.kind, r.op.key, res.Err)
		case digestOf(res.Res) != r.digest:
			s.o.failed++
			s.o.problem("%s %s: served result %s differs from local run %s", r.op.kind, r.op.key, r.digest, digestOf(res.Res))
		}
	}
	s.o.sample("local_check", fmt.Sprintf("%d fresh operations re-simulated locally", len(jobs)))
}

// traceOverhead is the share of closed-loop throughput the
// benchmark's tracing costs: traced operations' total cycle time
// against what the same operation mix took untraced in the same run.
func traceOverhead(recs []opRecord) float64 {
	var plainSum [3]time.Duration
	var plainN [3]int
	for _, r := range recs {
		if !r.traced {
			plainSum[r.op.kind] += r.cycle
			plainN[r.op.kind]++
		}
	}
	var actual, expected time.Duration
	for _, r := range recs {
		if r.traced && plainN[r.op.kind] > 0 {
			actual += r.cycle
			expected += plainSum[r.op.kind] / time.Duration(plainN[r.op.kind])
		}
	}
	if actual == 0 {
		return 0
	}
	return 1 - expected.Seconds()/actual.Seconds()
}

// latencies sets the simulation throughput and the latency metrics:
// the median and fixed tail of fresh jobs, and the median of repeats.
// Replays count towards throughput only.
func (s *serveRun) latencies(window time.Duration) {
	var miss, hit []float64
	var instrs uint64
	for _, r := range s.recs {
		if r.err != nil {
			continue // counted as failed; the run is not correct
		}
		switch r.op.kind {
		case opFresh:
			miss = append(miss, float64(r.latency)/1e6)
			instrs += r.instrs
		case opReplay:
			instrs += r.instrs
		case opRepeat:
			hit = append(hit, float64(r.latency)/1e6)
		}
	}
	s.o.set("sim_minstr_per_s", float64(instrs)/window.Seconds()/1e6)
	s.o.set("miss_p50_ms", percentile(miss, 50))
	s.o.set("miss_tail_ms", percentile(miss, missTailPct))
	s.o.sample("miss_tail_ms", tailSample(len(miss), missTailPct))
	s.o.set("hit_p50_ms", percentile(hit, 50))
}

// layers sets the per-layer metrics of a traced serve run from the
// job status timestamps, the server-side spans of the traced
// operations, and the servers' counters.
func (s *serveRun) layers(window time.Duration, before, after engineStats, coBefore, coAfter coordinatorStats) {
	o := &s.o
	o.spans = &spanLog{}
	o.spans.add(s.spans.Recent(0)...)
	o.spans.add(s.serverSpans...)
	spans := o.spans.all()

	var queue, run, overhead, upload []float64
	var busy time.Duration
	tracedOps := 0
	for _, r := range s.recs {
		if r.traced {
			tracedOps++
		}
		server := r.st.FinishedAt.Sub(r.st.SubmittedAt)
		switch r.op.kind {
		case opRepeat:
			overhead = append(overhead, float64(r.latency-server)/1e6)
		case opReplay:
			upload = append(upload, float64(r.upload)/1e6)
			fallthrough
		default:
			queue = append(queue, float64(r.st.StartedAt.Sub(r.st.SubmittedAt))/1e6)
			run = append(run, float64(r.st.FinishedAt.Sub(r.st.StartedAt))/1e6)
			busy += r.st.FinishedAt.Sub(r.st.StartedAt)
		}
	}
	o.set("service.queue_wait_ms", percentile(queue, missTailPct))
	o.sample("service.queue_wait_ms", tailSample(len(queue), missTailPct))
	o.set("service.run_ms", median(run))
	o.set("service.overhead_ms", median(overhead))
	if !s.fleet {
		o.set("service.upload_ms", median(upload))
	}
	o.set("service.sims_executed", float64(after.Engine.SimulationsExecuted-before.Engine.SimulationsExecuted))
	o.set("service.cache_put_errors", float64(after.Cache.PutErrors))

	var simRun []float64
	for _, sp := range spans {
		if sp.Name == "sim.run" {
			simRun = append(simRun, float64(sp.Duration())/1e6)
		}
	}
	o.set("runner.job_ms_p50", percentile(simRun, 50))
	setTail(o, "runner.job_ms_tail", simRun)
	o.set("runner.worker_busy_frac", busy.Seconds()/(workers*window.Seconds()))
	setSourceCounts(o, spans)
	o.set("obs.spans_per_job", float64(len(spans))/float64(max(tracedOps, 1)))
	o.set("obs.trace_overhead_frac", traceOverhead(s.recs))

	if !s.fleet {
		return
	}
	byTrace := map[string][]obs.Span{}
	var dispatch []float64
	for _, sp := range spans {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
		if sp.Name == "fleet.dispatch" {
			dispatch = append(dispatch, float64(sp.Duration())/1e6)
		}
	}
	var hops []float64
	for _, group := range byTrace {
		var coJob, replicaJob time.Duration
		for _, sp := range group {
			switch {
			case sp.Service == "coordinator" && strings.HasPrefix(sp.Name, "job "):
				coJob = sp.Duration()
			case sp.Service == "clusterd" && strings.HasPrefix(sp.Name, "job "):
				replicaJob = sp.Duration()
			}
		}
		if coJob > 0 && replicaJob > 0 {
			hops = append(hops, float64(coJob-replicaJob)/1e6)
		}
	}
	o.set("fleet.dispatch_ms", median(dispatch))
	o.set("fleet.hop_ms", median(hops))
	o.sample("fleet.hop_ms", fmt.Sprintf("median of %d traced jobs", len(hops)))
	o.set("fleet.resubmits", float64(coAfter.Coordinator.Resubmits-coBefore.Coordinator.Resubmits))
	var total, most int64
	for i, r := range coAfter.Replicas {
		n := r.Dispatched
		if i < len(coBefore.Replicas) {
			n -= coBefore.Replicas[i].Dispatched
		}
		total += n
		most = max(most, n)
	}
	if total > 0 {
		o.set("fleet.shard_skew", float64(most)*float64(len(coAfter.Replicas))/float64(total)-1)
	} else {
		o.set("fleet.shard_skew", 0)
	}
}
