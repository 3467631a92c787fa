// Package fleet is the coordinator side of clusterd fleet mode. A
// Coordinator is a service.Server — the single box's HTTP layer,
// tenants, admission and job/event hub, unchanged — whose Backend
// dispatches each admitted job to one of N clusterd replicas instead
// of running it: shards are placed deterministically by fingerprint
// hash, fail over around dead replicas with idempotent retries, and
// feed replica progress into the coordinator's own job record, so a
// caller cannot tell the fleet from a single box — same wire types,
// same error envelopes, byte-identical results JSON.
//
// Determinism is the load-bearing property, in the Bobpp style of
// deterministic work partitioning (PAPERS.md): a job's home replica is
// a pure function of its fingerprint and the *configured* replica list
// — never of load, timing, or which replicas happen to be up. The
// simulator itself is deterministic and results are content-addressed,
// so rerouting a shard around a dead replica changes where the work
// runs, never what it produces; a 1-replica and an N-replica fleet
// answer byte-identically. Retries are idempotent for the same reason:
// the worst a duplicated dispatch can do is warm the shared result
// cache twice.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clustervp/internal/core"
	"clustervp/internal/obs"
	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/service/client"
	"clustervp/internal/stats"
	"clustervp/internal/workload"
)

// Options configure a Coordinator.
type Options struct {
	// Options configure the coordinator's front door exactly as on a
	// single box — QueueDepth, MaxJobRecords, Tenants, SpanRing and
	// Logger — except that QueueDepth bounds in-flight jobs fleet-wide.
	// The engine fields stay zero (see service.NewCoordinator).
	service.Options
	// Replicas are the clusterd base URLs forming the shard space, e.g.
	// ["http://10.0.0.1:8090", "http://10.0.0.2:8090"]. Order matters:
	// shard assignment hashes into this list, so every coordinator of a
	// fleet must be configured with the same list in the same order.
	Replicas []string
	// ProbeInterval paces the /v1/healthz probe loop (<=0 = 2s).
	ProbeInterval time.Duration
	// DownAfter is how many consecutive probe failures demote a replica
	// from draining to down (<=0 = 3).
	DownAfter int
	// APIKey authenticates dispatches against multi-tenant replicas.
	APIKey string
	// Retry is the per-dispatch client policy (zero = 4 attempts, 100ms
	// base). The coordinator's failover across replicas sits above it.
	Retry client.RetryPolicy
	// HTTPClient overrides the transport shared by all replica clients;
	// tests route it through a fault-injecting RoundTripper. Nil = a
	// plain http.Client.
	HTTPClient *http.Client
}

// Coordinator is a fleet's front door: a service.Server whose Backend
// (the Coordinator itself) dispatches jobs across replicas. Create
// with New, expose with Handler, stop with Close.
type Coordinator struct {
	*service.Server

	opts     Options
	replicas []*replica
	logger   *slog.Logger

	// resubmits counts shard dispatches beyond the first — the fleet's
	// duplicate-work ceiling, surfaced in statsz and pinned by the
	// chaos test.
	resubmits atomic.Int64

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// errShutdown fails the jobs still in flight when the coordinator
// closes.
var errShutdown = errors.New("fleet: coordinator shut down before the job completed")

// New builds and starts a coordinator (health probes run until Close).
func New(opts Options) (*Coordinator, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: at least one replica is required")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	if opts.DownAfter <= 0 {
		opts.DownAfter = 3
	}
	if opts.Retry.MaxAttempts == 0 {
		opts.Retry = client.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond}
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	co := &Coordinator{
		opts:   opts,
		logger: logger,
		ctx:    ctx,
		cancel: cancel,
	}
	for i, base := range opts.Replicas {
		copts := []client.Option{client.WithRetry(opts.Retry)}
		if opts.HTTPClient != nil {
			copts = append(copts, client.WithHTTPClient(opts.HTTPClient))
		}
		if opts.APIKey != "" {
			copts = append(copts, client.WithAPIKey(opts.APIKey))
		}
		co.replicas = append(co.replicas, &replica{
			name:  fmt.Sprintf("replica-%d", i),
			base:  base,
			c:     client.New(base, copts...),
			state: replicaUp,
		})
	}
	srv, err := service.NewCoordinator(opts.Options, co)
	if err != nil {
		cancel()
		return nil, err
	}
	co.Server = srv
	co.wg.Add(1)
	go co.probeLoop()
	return co, nil
}

// Close aborts in-flight dispatches, waits for their jobs to fail, and
// stops the probe loop.
func (co *Coordinator) Close() {
	co.cancel()
	co.Server.Close()
	co.wg.Wait()
}

// shardKey is the deterministic partitioning key of a request: the
// same content-addressed identity the replicas' result cache keys on
// (for trace jobs the trace's digest stands in for its local path, so
// the key is identical no matter which box stores the trace). Building
// it also validates the request, so a bad spec is a 400 at the
// coordinator and never burns a dispatch.
func shardKey(req service.JobRequest) (string, error) {
	cfg, err := req.Machine.Build()
	if err != nil {
		return "", fmt.Errorf("%w: machine: %v", service.ErrBadRequest, err)
	}
	switch {
	case req.TraceDigest != "" && req.Kernel != "":
		return "", fmt.Errorf("%w: kernel and trace_digest are mutually exclusive", service.ErrBadRequest)
	case req.TraceDigest != "":
		cfg.Name = ""
		return fmt.Sprintf("%+v|trace:%s", cfg, req.TraceDigest), nil
	case req.Kernel != "":
		if _, err := workload.ByName(req.Kernel); err != nil {
			return "", fmt.Errorf("%w: %v", service.ErrBadRequest, err)
		}
		j := runner.Job{Config: cfg, Kernel: req.Kernel, Scale: req.Scale, Seed: req.Seed}
		return j.Fingerprint(), nil
	default:
		return "", fmt.Errorf("%w: one of kernel or trace_digest is required", service.ErrBadRequest)
	}
}

// shardOf maps a key onto the configured replica list: FNV-1a 64 mod
// N. Pure function of (key, configured list) — health never moves the
// home slot, it only reroutes execution.
func (co *Coordinator) shardOf(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(co.replicas)))
}

// Prepare validates a request and keys it by its shard key. The
// replica runs the job, so there is no runner.Job to build here. A
// fleet with no live replica refuses work the way a saturated single
// box does (503 queue_full), so clients back off instead of erroring.
func (co *Coordinator) Prepare(req service.JobRequest) (runner.Job, string, error) {
	key, err := shardKey(req)
	if err != nil {
		return runner.Job{}, "", err
	}
	if co.liveReplicas() == 0 {
		return runner.Job{}, "", fmt.Errorf("%w: no live replicas", service.ErrQueueFull)
	}
	return runner.Job{}, key, nil
}

// Execute walks the failover ring until the job reaches a verdict:
// home replica first, then the next live replica in ring order. A
// replica that fails mid-shard (transport error, broken stream,
// exhausted retries) costs a resubmission elsewhere — bounded
// duplicate work, since the shared content-addressed cache absorbs
// anything the failed replica already published.
func (co *Coordinator) Execute(j *service.Job) (stats.Results, string, error) {
	const via = "replica"
	home := co.shardOf(j.Key())
	j.Span().SetAttr("shard", strconv.Itoa(home))
	for attempt := 0; ; attempt++ {
		if attempt > 0 && attempt%len(co.replicas) == 0 && !co.pause() {
			// A full ring failed: the pause paces the fleet's recovery
			// instead of hammering it.
			return stats.Results{}, via, errShutdown
		}
		r := co.pick(home, attempt)
		if r == nil {
			// Nothing live right now: wait a probe period for the
			// health loop to resurrect something, then rescan.
			if !co.pause() {
				return stats.Results{}, via, errShutdown
			}
			continue
		}
		if attempt > 0 {
			co.resubmits.Add(1)
			co.logger.Warn("fleet resubmitting shard",
				"job", j.ID(), "replica", r.name, "attempt", attempt,
				"trace_id", j.Span().TraceID())
		}
		// One span per dispatch attempt, all siblings under the job
		// span: a failover shows up in the timeline as a second
		// fleet.dispatch span with attempt=1 next to the failed one.
		sp := j.Span().StartChild("fleet.dispatch")
		sp.SetAttr("replica", r.name)
		sp.SetAttr("attempt", strconv.Itoa(attempt))
		res, delivered, err := co.runOn(r, j, sp)
		sp.SetAttr("delivered", strconv.FormatBool(delivered))
		sp.End()
		if delivered {
			return res, via, err
		}
		r.dispatchFailed()
		if co.ctx.Err() != nil {
			return stats.Results{}, via, errShutdown
		}
	}
}

// pause waits one probe period; false means the coordinator closed.
func (co *Coordinator) pause() bool {
	select {
	case <-co.ctx.Done():
		return false
	case <-time.After(co.opts.ProbeInterval):
		return true
	}
}

// runOn runs the whole shard lifecycle against one replica: submit,
// stream events (progress feeds the job's own event stream), fetch the
// terminal status. delivered reports a verdict no other replica would
// decide differently, and err is then the job's failure: a failed
// simulation (the simulator is deterministic) or a 4xx other than 429
// on submit (the request itself is refused). delivered is false when
// the replica itself failed — transport error, 5xx, 429 — and the ring
// should move on. The dispatch-attempt span rides the context so the
// replica-bound submit carries a traceparent and the replica's job
// continues this job's trace.
func (co *Coordinator) runOn(r *replica, j *service.Job, sp *obs.ActiveSpan) (res stats.Results, delivered bool, err error) {
	ctx := obs.NewContext(co.ctx, sp)
	// The shard counts as dispatched before the submit: a replica can
	// accept it and lose the reply, and the orphan must still show.
	r.started()
	defer func() { r.finished(delivered) }()
	remote, err := r.c.SubmitJob(ctx, j.Request())
	if err != nil {
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode/100 == 4 && apiErr.StatusCode != http.StatusTooManyRequests {
			co.logger.Warn("fleet replica refused job", "job", j.ID(), "replica", r.name, "error", err)
			return stats.Results{}, true, errors.New(apiErr.Message)
		}
		co.logger.Warn("fleet submit failed", "job", j.ID(), "replica", r.name, "error", err)
		return stats.Results{}, false, nil
	}
	j.SetReplica(r.name)

	err = r.c.StreamEvents(ctx, remote.ID, func(ev service.Event) error {
		if ev.State == service.StateRunning && ev.Cycles > 0 {
			j.Progress(core.Progress{Cycle: ev.Cycles, Instructions: ev.Instructions})
		}
		return nil
	})
	if err != nil {
		// Stream broke before a terminal event: poll once — the job may
		// have finished during the disconnect; otherwise fail over.
		st, serr := r.c.Status(ctx, remote.ID)
		if serr != nil || (st.State != service.StateDone && st.State != service.StateFailed) {
			co.logger.Warn("fleet stream broke", "job", j.ID(), "replica", r.name, "error", err)
			return stats.Results{}, false, nil
		}
	}
	st, err := r.c.Status(ctx, remote.ID)
	if err != nil {
		co.logger.Warn("fleet status fetch failed", "job", j.ID(), "replica", r.name, "error", err)
		return stats.Results{}, false, nil
	}
	switch {
	case st.State == service.StateDone && st.Results != nil:
		return *st.Results, true, nil
	case st.State == service.StateFailed:
		return stats.Results{}, true, errors.New(st.Error)
	default:
		co.logger.Warn("fleet replica returned no terminal result",
			"job", j.ID(), "replica", r.name, "state", st.State)
		return stats.Results{}, false, nil
	}
}

// TraceSpans collects a job's replica-side spans from every reachable
// replica's /v1/tracez?trace_id= — the replica that ran the job
// contributes the admission→queue→run→sim spans, all under the same
// trace id thanks to traceparent propagation on the dispatch hop. An
// unreachable replica is skipped, not an error: a partial timeline
// beats none while a box is down.
func (co *Coordinator) TraceSpans(ctx context.Context, traceID string) []obs.Span {
	var spans []obs.Span
	for _, rep := range co.replicas {
		if rep.health() == replicaDown {
			continue
		}
		tz, err := rep.c.Tracez(ctx, traceID, 0)
		if err != nil {
			co.logger.Warn("fleet trace fetch failed", "replica", rep.name, "error", err)
			continue
		}
		spans = append(spans, tz.Spans...)
	}
	return spans
}

// ReplicaStatus is one replica's slice of the fleet statsz payload.
type ReplicaStatus struct {
	Name       string `json:"name"`
	Base       string `json:"base"`
	State      string `json:"state"`
	InFlight   int    `json:"in_flight"`
	Dispatched int64  `json:"dispatched"`
	Completed  int64  `json:"completed"`
}

// CoordinatorStats is the coordinator section of fleet statsz.
type CoordinatorStats struct {
	Capacity   int   `json:"capacity"`
	InFlight   int   `json:"in_flight"`
	Submitted  int64 `json:"submitted"`
	Done       int64 `json:"done"`
	Failed     int64 `json:"failed"`
	Resubmits  int64 `json:"resubmits"`
	LiveShards int   `json:"live_replicas"`
}

// Stats is the GET /v1/statsz payload of a coordinator: fleet-shaped
// (role distinguishes it from a replica's payload), same schema
// versioning discipline.
type Stats struct {
	SchemaVersion int              `json:"schema_version"`
	Role          string           `json:"role"`
	UptimeSec     float64          `json:"uptime_sec"`
	Coordinator   CoordinatorStats `json:"coordinator"`
	Replicas      []ReplicaStatus  `json:"replicas"`
}

// Stats snapshots the coordinator counters and per-replica health.
func (co *Coordinator) Stats() Stats { return co.Statsz(co.Server.Stats()).(Stats) }

// Statsz reshapes the front door's counters into the fleet statsz
// payload.
func (co *Coordinator) Statsz(front service.ServerStats) any {
	st := Stats{
		SchemaVersion: front.SchemaVersion,
		Role:          "coordinator",
		UptimeSec:     front.UptimeSec,
		Coordinator: CoordinatorStats{
			Capacity:   front.Queue.Capacity,
			InFlight:   front.Queue.Depth + front.Queue.Running,
			Submitted:  front.Queue.Submitted,
			Done:       front.Queue.Done,
			Failed:     front.Queue.Failed,
			Resubmits:  co.resubmits.Load(),
			LiveShards: co.liveReplicas(),
		},
	}
	for _, r := range co.replicas {
		r.mu.Lock()
		st.Replicas = append(st.Replicas, ReplicaStatus{
			Name:       r.name,
			Base:       r.base,
			State:      r.state.String(),
			InFlight:   r.inflight,
			Dispatched: r.dispatched,
			Completed:  r.completed,
		})
		r.mu.Unlock()
	}
	return st
}
