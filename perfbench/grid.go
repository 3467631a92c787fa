package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"clustervp"
	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/stats"
)

// workers bounds simulation concurrency in every workload: the
// reference machine has two CPUs.
const workers = 2

// setupReps is how many times a run sets up; setup_s is their median.
// A probe (env.probe) sets up once.
const setupReps = 5

func (e env) setupReps() int {
	if e.probe {
		return 1
	}
	return setupReps
}

// warmJobs is set-up's warm pass: every kernel once on the VPB
// machine, on inputs the measured passes never use.
func warmJobs(seed uint64, rep int) []clustervp.Job {
	jobs := make([]clustervp.Job, len(kernels))
	for i, k := range kernels {
		jobs[i] = clustervp.Job{Config: machines[2].cfg, Kernel: k, Scale: 1, Seed: kernelSeed(seed, famWarm, rep)}
	}
	return jobs
}

// runGridSynth is the cmd/experiments figure path: fresh engines over
// kernels synthesized in-process, new inputs every pass.
func runGridSynth(ctx context.Context, e env) (*outcome, error) {
	o := &outcome{}
	setups := make([]float64, e.setupReps())
	for i := range setups {
		t0 := time.Now()
		rs := clustervp.NewEngine(workers).Run(warmJobs(e.seed, i))
		setups[i] = time.Since(t0).Seconds()
		if err := clustervp.FirstErr(rs); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	o.set("setup_s", median(setups))
	g := gridRun{e: e, o: o, rc: newRecordCounter(e.work)}
	return o, g.measure(ctx, func(p int) ([]clustervp.Job, int) { return gridJobs(e.seed, p), p })
}

// runGridReplay replays the same grid from .cvt files materialized in
// set-up, through the default engine and its decoded-trace arena. Each
// set-up materializes different inputs, so each one pays the full
// write and decode cost; the passes replay the last set.
func runGridReplay(ctx context.Context, e env) (*outcome, error) {
	o := &outcome{}
	setups := make([]float64, e.setupReps())
	var jobs []clustervp.Job
	for i := range setups {
		t0 := time.Now()
		var err error
		jobs, err = clustervp.MaterializeTraces(filepath.Join(e.work, fmt.Sprintf("traces-%d", i)), gridJobs(e.seed, i))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		// Decode every trace once into the arena: jobs[:len(kernels)]
		// are the first machine on each kernel.
		rs := clustervp.NewEngine(workers).Run(jobs[:len(kernels)])
		setups[i] = time.Since(t0).Seconds()
		if err := clustervp.FirstErr(rs); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	o.set("setup_s", median(setups))
	g := gridRun{e: e, o: o, rc: newRecordCounter(e.work)}
	return o, g.measure(ctx, func(int) ([]clustervp.Job, int) { return jobs, len(setups) - 1 })
}

// gridRun measures grid passes until the run's time is up.
type gridRun struct {
	e  env
	o  *outcome
	rc *recordCounter

	// Traced runs only.
	spans    *obs.Collector
	jobSpans []time.Duration
	busy     time.Duration
	wall     time.Duration
	jobs     int
}

// measure runs passes of jobsFor(pass) — which also names the grid
// row of committed digests the pass reproduces. An untraced pass runs
// the jobs on a fresh engine from a closed loop of callers (see
// closedLoop), each job followed by its memo-hit repeat. Throughput
// metrics are medians over passes and latencies are taken over every
// job of the run. A traced run alternates untraced and traced passes
// so the tracing overhead is measured in the same run, then adds the
// per-layer ladder.
func (g *gridRun) measure(ctx context.Context, jobsFor func(pass int) ([]clustervp.Job, int)) error {
	if g.e.traced {
		g.spans = obs.NewCollector("perfbench", 1<<16)
	}
	var plain, traced, rates, miss, hit []float64
	deadline := time.Now().Add(g.e.seconds)
	for pass := 0; time.Now().Before(deadline) || len(plain) == 0 || (g.e.traced && len(traced) == 0); pass++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		jobs, row := jobsFor(pass)
		if g.e.traced && pass%2 == 1 {
			t0 := time.Now()
			rs := g.tracedPass(pass, jobs)
			dt := time.Since(t0)
			traced = append(traced, float64(instructions(rs))/dt.Seconds()/1e6)
			g.wall += dt
			g.check(rs, row)
			continue
		}
		t0 := time.Now()
		rs, hits, missLat, hitLat := closedLoop(clustervp.NewEngine(workers), jobs)
		dt := time.Since(t0)
		plain = append(plain, float64(instructions(rs))/dt.Seconds()/1e6)
		rates = append(rates, float64(2*len(jobs))/dt.Seconds())
		miss = appendMS(miss, missLat)
		hit = appendMS(hit, hitLat)
		g.check(rs, row)
		g.checkHits(rs, hits)
	}
	if !g.e.traced {
		g.o.set("sim_minstr_per_s", median(plain))
		g.o.sample("sim_minstr_per_s", fmt.Sprintf("median of %d passes of %d jobs", len(plain), gridSize))
		g.o.set("jobs_per_s", median(rates))
		g.o.set("miss_p50_ms", percentile(miss, 50))
		g.o.set("miss_tail_ms", percentile(miss, missTailPct))
		g.o.sample("miss_tail_ms", tailSample(len(miss), missTailPct))
		g.o.set("hit_p50_ms", percentile(hit, 50))
		rss, err := peakRSSMB(0)
		if err != nil {
			return err
		}
		g.o.set("peak_rss_mb", rss)
		return nil
	}
	g.o.spans = &spanLog{}
	g.o.spans.add(g.spans.Recent(0)...)
	g.report(median(plain), median(traced))
	return runLadder(g.e, g.o)
}

// closedLoop runs jobs on eng from a closed loop of workers callers.
// Each caller takes the next job, submits it and waits for its result,
// then submits it again — a memo hit, served while the other caller's
// simulation runs, as a repeat is on serve-box — before taking the
// next. It returns, in job order, the simulated results, the repeats'
// results and both latencies.
func closedLoop(eng *clustervp.Engine, jobs []clustervp.Job) (rs, hits []clustervp.JobResult, miss, hit []time.Duration) {
	n := len(jobs)
	rs, hits = make([]clustervp.JobResult, n), make([]clustervp.JobResult, n)
	miss, hit = make([]time.Duration, n), make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				t0 := time.Now()
				rs[i] = eng.Run(jobs[i : i+1])[0]
				t1 := time.Now()
				hits[i] = eng.Run(jobs[i : i+1])[0]
				miss[i], hit[i] = t1.Sub(t0), time.Since(t1)
			}
		}()
	}
	wg.Wait()
	return rs, hits, miss, hit
}

func instructions(rs []clustervp.JobResult) uint64 {
	var n uint64
	for _, r := range rs {
		n += r.Res.Instructions
	}
	return n
}

// appendMS appends durations to xs in milliseconds.
func appendMS(xs []float64, ds []time.Duration) []float64 {
	for _, d := range ds {
		xs = append(xs, float64(d)/1e6)
	}
	return xs
}

// check verifies every job of a pass: no error, committed
// instructions equal to the input's trace record count, and — at the
// default seed — the committed digest.
func (g *gridRun) check(rs []clustervp.JobResult, row int) {
	for i, r := range rs {
		g.o.attempted++
		if r.Err != nil {
			g.o.failed++
			g.o.problem("%s: %v", r.Job, r.Err)
			continue
		}
		want, err := g.rc.count(r.Job.Kernel, r.Job.Seed)
		if err != nil {
			g.o.failed++
			g.o.problem("%s: count records: %v", r.Job, err)
			continue
		}
		if r.Res.Instructions != want {
			g.o.failed++
			g.o.problem("%s: committed %d instructions, trace has %d records", r.Job, r.Res.Instructions, want)
			continue
		}
		if d := expectedDigest(g.e.seed, famGrid, row, i); d != "" && digestOf(r.Res) != d {
			g.o.failed++
			g.o.problem("%s: result digest %s, committed %s", r.Job, digestOf(r.Res), d)
		}
	}
}

// checkHits verifies the memo-hit repeats of a pass: every repeat is
// served from the memo with its job's simulated result, unchanged.
func (g *gridRun) checkHits(rs, hits []clustervp.JobResult) {
	for i, h := range hits {
		g.o.attempted++
		switch {
		case h.Err != nil:
			g.o.failed++
			g.o.problem("%s (repeat): %v", h.Job, h.Err)
		case h.Via != runner.ViaMemo:
			g.o.failed++
			g.o.problem("%s (repeat): served by %s, not the memo", h.Job, h.Via)
		case rs[i].Err == nil && digestOf(h.Res) != digestOf(rs[i].Res):
			g.o.failed++
			g.o.problem("%s (repeat): result differs from the simulated one", h.Job)
		}
	}
}

// tracedPass runs one pass through an engine whose simulator records
// a span per job around the runner's own traced entry point, and
// accumulates the runner per-layer figures.
func (g *gridRun) tracedPass(pass int, jobs []clustervp.Job) []clustervp.JobResult {
	passSpan := g.spans.StartRoot("bench.pass", obs.SpanContext{})
	passSpan.SetAttr("pass", fmt.Sprint(pass))
	eng := runner.New(runner.Options{Workers: workers, Run: func(j runner.Job) (stats.Results, error) {
		sp := passSpan.StartChild("bench.job")
		sp.SetAttr("job", j.String())
		res, err := runner.SimulateTraced(j, 0, nil, sp)
		sp.End()
		return res, err
	}})
	rs := eng.Run(jobs)
	passSpan.End()
	g.jobs += len(jobs)
	for _, sp := range g.spans.TraceSpans(passSpan.TraceID()) {
		if sp.Name == "bench.job" {
			g.jobSpans = append(g.jobSpans, sp.Duration())
			g.busy += sp.Duration()
		}
	}
	return rs
}

// report turns the traced passes into the runner and trace source
// per-layer metrics.
func (g *gridRun) report(plainMIPS, tracedMIPS float64) {
	ms := make([]float64, len(g.jobSpans))
	for i, d := range g.jobSpans {
		ms[i] = float64(d) / 1e6
	}
	g.o.set("runner.job_ms_p50", percentile(ms, 50))
	setTail(g.o, "runner.job_ms_tail", ms)
	g.o.set("runner.worker_busy_frac", g.busy.Seconds()/(workers*g.wall.Seconds()))
	spans := g.o.spans.all()
	setSourceCounts(g.o, spans)
	g.o.set("obs.spans_per_job", float64(len(spans))/float64(g.jobs))
	g.o.set("obs.trace_overhead_frac", 1-tracedMIPS/plainMIPS)
}

// setSourceCounts counts sim.materialize spans by their source
// attribute: arena-resident, decoded on first use, or streamed.
func setSourceCounts(o *outcome, spans []obs.Span) {
	counts := map[string]int{}
	for _, sp := range spans {
		if sp.Name == "sim.materialize" {
			counts[sp.Attrs["source"]]++
		}
	}
	for _, src := range []string{runner.SourceArena, runner.SourceDecode, runner.SourceStream} {
		o.set("trace.source."+src, float64(counts[src]))
	}
}

// mkdirTemp makes a fresh directory under the run's work area.
func mkdirTemp(e env, name string) (string, error) {
	dir := filepath.Join(e.work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
