package fleet

// Front-door equivalence: a single box and a coordinator are the same
// service.Server over different backends, so one scripted HTTP session
// must read byte-identically through either (after normalizing what is
// legitimately per-process: job IDs, timestamps, trace IDs and the
// fleet-only replica attribution), and the tenant rules — 401 without
// a key, 404 across tenants, 429 past a quota — must hold through both.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/stats"
)

// frontDoor boots one deployment shape over a simulator and returns
// its base URL.
type frontDoor struct {
	name string
	open func(t *testing.T, tenants []service.Tenant, run func(runner.Job) (stats.Results, error)) string
}

var frontDoors = []frontDoor{
	{"single box", func(t *testing.T, tenants []service.Tenant, run func(runner.Job) (stats.Results, error)) string {
		s, err := service.New(service.Options{Workers: 1, Tenants: tenants, Run: run})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		return ts.URL
	}},
	{"coordinator", func(t *testing.T, tenants []service.Tenant, run func(runner.Job) (stats.Results, error)) string {
		tf := newTestFleet(t, 1, func(int) func(runner.Job) (stats.Results, error) { return run },
			func(o *Options) { o.Tenants = tenants })
		ts := httptest.NewServer(tf.co.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}},
}

// stubRun is an instant deterministic simulator.
func stubRun(j runner.Job) (stats.Results, error) {
	return stats.Results{Benchmark: j.Kernel, Cycles: 10 * int64(j.EffectiveScale()), Instructions: 15}, nil
}

// call performs one request with an optional API key and returns the
// status, headers and fully-read body.
func call(t *testing.T, method, url, key, body string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, data
}

// pollState polls a job over HTTP until it reaches want.
func pollState(t *testing.T, base, key, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		_, _, body := call(t, http.MethodGet, base+"/v1/jobs/"+id, key, "")
		var st service.JobStatus
		if json.Unmarshal(body, &st) == nil && st.State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
}

var (
	jobIDRe     = regexp.MustCompile(`\b[jf]-\d{8}\b`)
	timestampRe = regexp.MustCompile(`"\d{4}-\d\d-\d\dT[^"]*"`)
	traceIDRe   = regexp.MustCompile(`"[0-9a-f]{32}"`)
	replicaRe   = regexp.MustCompile(`(?m)^\s*"replica": "[^"]*",\n`)
)

// normalize masks what legitimately differs between two processes
// answering the same session.
func normalize(body []byte) string {
	s := replicaRe.ReplaceAllString(string(body), "")
	s = jobIDRe.ReplaceAllString(s, "ID")
	s = timestampRe.ReplaceAllString(s, `"TIME"`)
	return traceIDRe.ReplaceAllString(s, `"TRACE"`)
}

// transcript runs the scripted session against one front door.
func transcript(t *testing.T, base string) []string {
	t.Helper()
	var out []string
	record := func(method, path, body string) []byte {
		status, _, data := call(t, method, base+path, "", body)
		out = append(out, normalize(fmt.Appendf(nil, "%s %s -> %d\n%s", method, path, status, data)))
		return data
	}

	var st service.JobStatus
	if err := json.Unmarshal(record(http.MethodPost, "/v1/jobs", `{"machine":{"clusters":"2"},"kernel":"rawcaudio"}`), &st); err != nil {
		t.Fatal(err)
	}
	var grid struct {
		Jobs []string `json:"jobs"`
	}
	if err := json.Unmarshal(record(http.MethodPost, "/v1/grids",
		`{"machines":[{"clusters":"2"},{"clusters":"4","vp":"stride","steering":"vpb"}],"kernels":["gsmdec"],"scales":[1,2]}`), &grid); err != nil {
		t.Fatal(err)
	}
	for _, id := range append([]string{st.ID}, grid.Jobs...) {
		pollState(t, base, "", id, service.StateDone)
	}
	record(http.MethodGet, "/v1/jobs/"+st.ID, "")
	record(http.MethodGet, "/v1/jobs/"+grid.Jobs[3], "")
	record(http.MethodGet, "/v1/jobs/"+st.ID+"/events", "")

	record(http.MethodPost, "/v1/jobs", `{"machine":{"clusters":"three"},"kernel":"rawcaudio"}`)
	record(http.MethodPost, "/v1/jobs", `{"machine":{"clusters":"2"},"kernel":"no-such-kernel"}`)
	record(http.MethodPost, "/v1/grids", `{"machines":[],"kernels":["rawcaudio"]}`)
	record(http.MethodPost, "/v1/jobs", `{"machine":{"clusters":"2"},"kernal":"rawcaudio"}`)
	record(http.MethodPost, "/v1/jobs", `{"kernel":"`+strings.Repeat("x", 2<<20)+`"}`)
	record(http.MethodGet, "/v1/nope", "")
	record(http.MethodDelete, "/v1/jobs", "")
	record(http.MethodGet, "/v1/jobs/no-such-job", "")
	return out
}

// TestGoldenTranscript: the same session through a single box and a
// 1-replica fleet answers byte-identical bodies and status codes.
func TestGoldenTranscript(t *testing.T) {
	var got [][]string
	for _, fd := range frontDoors {
		got = append(got, transcript(t, fd.open(t, nil, stubRun)))
	}
	box, fleet := got[0], got[1]
	if len(box) != len(fleet) {
		t.Fatalf("transcripts differ in length: %d vs %d", len(box), len(fleet))
	}
	for i := range box {
		if box[i] != fleet[i] {
			t.Errorf("step %d differs:\n single box: %s\n coordinator: %s", i, box[i], fleet[i])
		}
	}
	// The oversized body is a typed 413 on both, not a 400.
	if oversize := box[9]; !strings.Contains(oversize, "-> 413") || !strings.Contains(oversize, service.CodePayloadTooLarge) {
		t.Errorf("2 MiB body answered %s, want 413 %s", oversize, service.CodePayloadTooLarge)
	}
}

// TestTenantsThroughFrontDoors: tenant authentication, isolation and
// quotas hold the same through a coordinator as on a single box.
func TestTenantsThroughFrontDoors(t *testing.T) {
	tenants := []service.Tenant{
		{Name: "alice", Key: "alice-key-0001", MaxQueued: 2, MaxInFlight: 3},
		{Name: "bob", Key: "bob-key-0001"},
	}
	const job = `{"machine":{"clusters":"2"},"kernel":"rawcaudio","scale":%d}`
	for _, fd := range frontDoors {
		t.Run(fd.name, func(t *testing.T) {
			gate := make(chan struct{})
			base := fd.open(t, tenants, func(j runner.Job) (stats.Results, error) {
				<-gate
				return stubRun(j)
			})
			t.Cleanup(func() { close(gate) })

			// A keyless submission is 401.
			status, _, body := call(t, http.MethodPost, base+"/v1/jobs", "", fmt.Sprintf(job, 1))
			wantCode(t, status, body, http.StatusUnauthorized, service.CodeUnauthorized)

			// alice fills her quota: one running, two more in flight.
			var ids []string
			for i := 1; i <= 3; i++ {
				status, _, body := call(t, http.MethodPost, base+"/v1/jobs", "alice-key-0001", fmt.Sprintf(job, i))
				var st service.JobStatus
				if status != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
					t.Fatalf("alice submit %d = %d: %s", i, status, body)
				}
				ids = append(ids, st.ID)
				if i == 1 {
					pollState(t, base, "alice-key-0001", st.ID, service.StateRunning)
				}
			}

			// bob cannot see alice's job: 404, indistinguishable from absent.
			for _, path := range []string{"/v1/jobs/" + ids[0], "/v1/jobs/" + ids[0] + "/events", "/v1/jobs/" + ids[0] + "/trace"} {
				status, _, body := call(t, http.MethodGet, base+path, "bob-key-0001", "")
				wantCode(t, status, body, http.StatusNotFound, service.CodeNotFound)
			}
			if status, _, _ := call(t, http.MethodGet, base+"/v1/jobs/"+ids[0], "alice-key-0001", ""); status != http.StatusOK {
				t.Errorf("owner read = %d, want 200", status)
			}

			// alice's fourth job is over quota: 429 with Retry-After; bob
			// is unaffected.
			status, hdr, body := call(t, http.MethodPost, base+"/v1/jobs", "alice-key-0001", fmt.Sprintf(job, 4))
			wantCode(t, status, body, http.StatusTooManyRequests, service.CodeQuotaExceeded)
			if hdr.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			if status, _, body := call(t, http.MethodPost, base+"/v1/jobs", "bob-key-0001", fmt.Sprintf(job, 4)); status != http.StatusAccepted {
				t.Errorf("bob's submit during alice's quota exhaustion = %d: %s", status, body)
			}
		})
	}
}

// wantCode asserts an error envelope's status and code.
func wantCode(t *testing.T, status int, body []byte, wantStatus int, code string) {
	t.Helper()
	var env service.ErrorEnvelope
	if status != wantStatus || json.Unmarshal(body, &env) != nil || env.Error.Code != code {
		t.Errorf("got %d %s, want %d %s", status, body, wantStatus, code)
	}
}
