package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"clustervp/internal/obs"
)

// The benchmark speaks the versioned clusterd HTTP API with its own
// minimal types, so internal refactors of the service packages cannot
// change what the untraced runs measure.

type jobRequest struct {
	Machine     wireMachine `json:"machine"`
	Kernel      string      `json:"kernel,omitempty"`
	Scale       int         `json:"scale,omitempty"`
	Seed        uint64      `json:"seed,omitempty"`
	TraceDigest string      `json:"trace_digest,omitempty"`
}

type jobStatus struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
	Error       string          `json:"error"`
	Results     json.RawMessage `json:"results"`
}

type jobEvent struct {
	State string `json:"state"`
	Error string `json:"error"`
}

// apiClient is one closed-loop client: a single keep-alive connection,
// one request at a time.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *apiClient) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a JSON reply into out, or returns
// an error carrying the status and body of a non-2xx reply.
func (c *apiClient) do(ctx context.Context, method, path, traceparent string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *apiClient) healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", "", nil, nil)
}

// fetchStats reads one server's /v1/statsz into out.
func fetchStats(ctx context.Context, base string, out any) error {
	c := newAPIClient(base)
	defer c.close()
	return c.do(ctx, http.MethodGet, "/v1/statsz", "", nil, out)
}

func (c *apiClient) submit(ctx context.Context, req jobRequest, traceparent string) (jobStatus, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return jobStatus{}, err
	}
	var st jobStatus
	err = c.do(ctx, http.MethodPost, "/v1/jobs", traceparent, bytes.NewReader(b), &st)
	return st, err
}

// wait reads the job's NDJSON event stream to its terminal event and
// returns that event's state ("done" or "failed").
func (c *apiClient) wait(ctx context.Context, id string) (jobEvent, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return jobEvent{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return jobEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobEvent{}, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev jobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return jobEvent{}, fmt.Errorf("events %s: %w", id, err)
		}
		if ev.State == "done" || ev.State == "failed" {
			// Drain so the connection is reused for the next request.
			_, err := io.Copy(io.Discard, resp.Body)
			return ev, err
		}
	}
	if err := sc.Err(); err != nil {
		return jobEvent{}, err
	}
	return jobEvent{}, fmt.Errorf("events %s: stream ended before a terminal state", id)
}

func (c *apiClient) status(ctx context.Context, id string) (jobStatus, error) {
	var st jobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, "", nil, &st)
	return st, err
}

// upload posts a .cvt file to the trace store.
func (c *apiClient) upload(ctx context.Context, path, traceparent string) (digest string, records uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/traces", f)
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return "", 0, fmt.Errorf("upload %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	var out struct {
		Digest  string `json:"digest"`
		Records uint64 `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", 0, err
	}
	return out.Digest, out.Records, nil
}

// jobSpans fetches a finished job's span timeline (traced runs only).
func (c *apiClient) jobSpans(ctx context.Context, id string) ([]obs.Span, error) {
	var tr struct {
		Spans []obs.Span `json:"spans"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace?format=spans", "", nil, &tr)
	return tr.Spans, err
}
