package service

// The tracing surface of the job server:
//
//	GET /v1/jobs/{id}/trace?format=chrome|spans
//	    One job's span timeline. format=spans (default) returns the
//	    machine-checkable JSON span dump; format=chrome returns Chrome
//	    trace-event JSON loadable in chrome://tracing or Perfetto
//	    (https://ui.perfetto.dev). Tenant-scoped like the status
//	    endpoint. A running job returns the spans finished so far. A
//	    coordinator merges in its replicas' spans for the same trace
//	    (Backend.TraceSpans).
//	GET /v1/tracez?limit=N&trace_id=...
//	    The most recent finished spans across all traces (default 256),
//	    plus collector occupancy — the "what is this server doing"
//	    debug page. Like /v1/statsz, it is server-wide: any
//	    authenticated caller sees all tenants' spans. trace_id filters
//	    to one trace's retained spans; the fleet coordinator uses this
//	    to collect a job's replica-side spans into a merged timeline.

import (
	"fmt"
	"net/http"
	"strconv"

	"clustervp/internal/obs"
)

// TraceResponse is the format=spans payload of GET /v1/jobs/{id}/trace.
type TraceResponse struct {
	SchemaVersion int        `json:"schema_version"`
	TraceID       string     `json:"trace_id"`
	Job           string     `json:"job"`
	State         string     `json:"state"`
	Spans         []obs.Span `json:"spans"`
}

// TracezResponse is the GET /v1/tracez payload.
type TracezResponse struct {
	SchemaVersion int        `json:"schema_version"`
	Service       string     `json:"service"`
	Retained      int        `json:"retained"`
	Dropped       uint64     `json:"dropped"`
	Spans         []obs.Span `json:"spans"`
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupFor(s.tenantOf(r), r.PathValue("id"))
	if !ok {
		writeError(w, ErrNoSuchJob)
		return
	}
	ri := infoFrom(r.Context())
	ri.jobID = j.id
	ri.fp = j.fp
	spans := append(s.spans.TraceSpans(j.traceID), s.backend.TraceSpans(r.Context(), j.traceID)...)
	switch format := r.URL.Query().Get("format"); format {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.id+".trace.json"))
		obs.WriteChromeTrace(w, spans)
	case "", "spans":
		if spans == nil {
			spans = []obs.Span{}
		}
		writeJSON(w, http.StatusOK, TraceResponse{
			SchemaVersion: SchemaVersion,
			TraceID:       j.traceID,
			Job:           j.id,
			State:         j.status().State,
			Spans:         spans,
		})
	default:
		writeError(w, fmt.Errorf("%w: unknown trace format %q (want chrome or spans)", ErrBadRequest, format))
	}
}

func (s *Server) handleTracez(w http.ResponseWriter, r *http.Request) {
	limit := 256
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeError(w, fmt.Errorf("%w: limit %q is not a non-negative integer", ErrBadRequest, raw))
			return
		}
		limit = n
	}
	var spans []obs.Span
	if tid := r.URL.Query().Get("trace_id"); tid != "" {
		spans = s.spans.TraceSpans(tid)
	} else {
		spans = s.spans.Recent(limit)
	}
	if spans == nil {
		spans = []obs.Span{}
	}
	writeJSON(w, http.StatusOK, TracezResponse{
		SchemaVersion: SchemaVersion,
		Service:       s.spans.Service(),
		Retained:      s.spans.Len(),
		Dropped:       s.spans.Dropped(),
		Spans:         spans,
	})
}
