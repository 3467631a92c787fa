package service

// The seam between clusterd's two roles. A Server is the one front
// door — HTTP layer, tenants, admission, job records and their event
// streams — and a Backend is what it does with an admitted job: run it
// on the local engine (engineBackend, the single box) or dispatch it
// to a replica (internal/service/fleet, the coordinator).

import (
	"context"
	"fmt"
	"sync"

	"clustervp/internal/core"
	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/stats"
	"clustervp/internal/trace"
	"clustervp/internal/workload"
)

// Backend executes the jobs a Server admits.
type Backend interface {
	// Prepare validates a request before admission and returns the job
	// an engine would run plus its content-addressed key (the job's
	// fingerprint in logs and spans). A backend that forwards the
	// request itself may return a zero runner.Job. Validation failures
	// wrap ErrBadRequest; a backend that cannot take work at all
	// answers ErrQueueFull.
	Prepare(req JobRequest) (rjob runner.Job, key string, err error)
	// Execute runs one admitted job to its outcome, feeding progress
	// into the job's event stream, and reports how the result was
	// resolved (the via label of spans and metrics).
	Execute(j *Job) (res stats.Results, via string, err error)
	// Statsz renders the GET /v1/statsz payload from the server's own
	// counters.
	Statsz(st ServerStats) any
	// TraceSpans returns the spans of a trace recorded outside this
	// process, merged into GET /v1/jobs/{id}/trace.
	TraceSpans(ctx context.Context, traceID string) []obs.Span
}

// engineBackend is the single box's Backend: the local runner.Engine
// with its memo, result cache and trace store.
type engineBackend struct {
	eng              *runner.Engine
	store            *trace.Store // nil when disabled
	run              func(runner.Job) (stats.Results, error)
	progressInterval int64

	// fanouts fans simulation progress out to every service job
	// currently running one fingerprint (the engine deduplicates
	// executions; events must not be deduplicated with them). All
	// registry mutations happen under fanMu so a finishing job's
	// remove-and-delete cannot race a starting job's lookup-or-create
	// into a dropped registration.
	fanMu   sync.Mutex
	fanouts map[string]*fanout
}

// Prepare validates a request into an executable job keyed by its
// fingerprint.
func (b *engineBackend) Prepare(req JobRequest) (runner.Job, string, error) {
	rjob, err := b.buildJob(req)
	if err != nil {
		return runner.Job{}, "", err
	}
	return rjob, rjob.Fingerprint(), nil
}

// buildJob validates a request into an executable job. Every failure
// wraps ErrBadRequest.
func (b *engineBackend) buildJob(req JobRequest) (runner.Job, error) {
	cfg, err := req.Machine.Build()
	if err != nil {
		return runner.Job{}, fmt.Errorf("%w: machine: %v", ErrBadRequest, err)
	}
	switch {
	case req.TraceDigest != "" && req.Kernel != "":
		return runner.Job{}, fmt.Errorf("%w: kernel and trace_digest are mutually exclusive", ErrBadRequest)
	case req.TraceDigest != "":
		if b.store == nil {
			return runner.Job{}, fmt.Errorf("%w: this server has no trace store", ErrBadRequest)
		}
		path, err := b.store.Path(req.TraceDigest)
		if err != nil {
			return runner.Job{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		if !b.store.Has(req.TraceDigest) {
			return runner.Job{}, fmt.Errorf("%w: trace %s not uploaded", ErrBadRequest, req.TraceDigest)
		}
		return runner.Job{Config: cfg, Trace: path}, nil
	case req.Kernel != "":
		if _, err := workload.ByName(req.Kernel); err != nil {
			return runner.Job{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return runner.Job{Config: cfg, Kernel: req.Kernel, Scale: req.Scale, Seed: req.Seed}, nil
	default:
		return runner.Job{}, fmt.Errorf("%w: one of kernel or trace_digest is required", ErrBadRequest)
	}
}

// Execute runs one job through the engine, fanning progress out to
// every job that shares the fingerprint while it runs.
func (b *engineBackend) Execute(j *Job) (stats.Results, string, error) {
	b.fanoutAttach(j)
	r := b.eng.Run([]runner.Job{j.rjob})[0]
	b.fanoutDetach(j)
	return r.Res, r.Via.String(), r.Err
}

// Statsz serves the server's own stats: a single box's engine and
// cache sections are already in them.
func (b *engineBackend) Statsz(st ServerStats) any { return st }

// TraceSpans is empty: a single box records its whole timeline itself.
func (b *engineBackend) TraceSpans(context.Context, string) []obs.Span { return nil }

// simulate is the engine's run function: the real simulator with
// progress fanned out to every job sharing the fingerprint, or the
// injected test stub. The simulation's spans (materialize/run/warmup)
// parent under the first attached job's run span — the engine
// deduplicates executions by fingerprint, so the one simulation's
// timeline lands in one job's trace; the duplicates record a memo-hit
// via instead.
func (b *engineBackend) simulate(j runner.Job) (stats.Results, error) {
	if b.run != nil {
		return b.run(j)
	}
	var (
		fn     func(core.Progress)
		parent *obs.ActiveSpan
	)
	if f := b.fanoutLookup(j.Fingerprint()); f != nil {
		fn, parent = f.publish, f.parentSpan()
	}
	return runner.SimulateTraced(j, b.progressInterval, fn, parent)
}

// fanoutLookup returns the fanout currently registered for a
// fingerprint, or nil.
func (b *engineBackend) fanoutLookup(fp string) *fanout {
	b.fanMu.Lock()
	defer b.fanMu.Unlock()
	return b.fanouts[fp]
}

// fanoutAttach registers j for progress on its fingerprint, creating
// the fanout if needed.
func (b *engineBackend) fanoutAttach(j *Job) {
	b.fanMu.Lock()
	defer b.fanMu.Unlock()
	f := b.fanouts[j.fp]
	if f == nil {
		f = &fanout{}
		b.fanouts[j.fp] = f
	}
	f.add(j)
}

// fanoutDetach removes j and drops the fanout when it was the last
// attached job. Attach and detach share fanMu, so a detach can never
// delete a fanout a concurrent attach just joined.
func (b *engineBackend) fanoutDetach(j *Job) {
	b.fanMu.Lock()
	defer b.fanMu.Unlock()
	if f := b.fanouts[j.fp]; f != nil && f.remove(j) == 0 {
		delete(b.fanouts, j.fp)
	}
}

// fanout broadcasts core progress to the service jobs currently
// running one fingerprint.
type fanout struct {
	mu   sync.Mutex
	jobs []*Job
}

func (f *fanout) add(j *Job) {
	f.mu.Lock()
	f.jobs = append(f.jobs, j)
	f.mu.Unlock()
}

// parentSpan returns the first attached job's run span — the parent
// for the simulation's own spans. Reading j.runSpan here is safe: it
// is assigned before fanoutAttach publishes the job, and both the add
// and this read synchronize on f.mu.
func (f *fanout) parentSpan() *obs.ActiveSpan {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, j := range f.jobs {
		if j.runSpan != nil {
			return j.runSpan
		}
	}
	return nil
}

// remove drops j and returns the remaining count.
func (f *fanout) remove(j *Job) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, x := range f.jobs {
		if x == j {
			f.jobs = append(f.jobs[:i], f.jobs[i+1:]...)
			break
		}
	}
	return len(f.jobs)
}

// publish delivers one progress snapshot to every attached job. Called
// from the simulation goroutine: it must stay cheap and non-blocking.
func (f *fanout) publish(p core.Progress) {
	f.mu.Lock()
	for _, j := range f.jobs {
		j.Progress(p)
	}
	f.mu.Unlock()
}
