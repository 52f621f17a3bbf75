package service

import (
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// This file is the read side of the request flight recorder:
// GET /v1/traces (filtered JSON over the trace store, optionally with
// the latency-histogram exemplars that link /metrics buckets to request
// IDs) and the human-readable /debug/requests dump cmd/probconsd mounts
// beside pprof. The write side is the instrument middleware in
// metrics.go; the store itself is internal/obs/tracestore.go.

// statszSlowestN is the length of the /statsz "slowest" block.
const statszSlowestN = 5

// maxTraceLimit caps one /v1/traces response.
const maxTraceLimit = 1000

// TraceEventView is one point-in-time trace annotation on the wire.
type TraceEventView struct {
	Name     string  `json:"name"`
	Detail   string  `json:"detail,omitempty"`
	OffsetMS float64 `json:"offset_ms"`
}

// TraceRecordView is one flight-recorder trace on the wire. Counters is
// the engine-counter delta across the request; under concurrency it
// attributes overlapping requests' engine work to every open trace
// (process-global counters), so read it as "what the engine did while
// this request was in flight".
type TraceRecordView struct {
	ID         string           `json:"id"`
	Endpoint   string           `json:"endpoint"`
	Status     int              `json:"status"`
	Keep       string           `json:"keep"`
	Start      time.Time        `json:"start"`
	DurationMS float64          `json:"duration_ms"`
	Cache      string           `json:"cache,omitempty"`
	Error      string           `json:"error,omitempty"`
	Spans      []SpanView       `json:"spans,omitempty"`
	Events     []TraceEventView `json:"events,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// ExemplarView is one bucket exemplar of a latency histogram: the most
// recent request that landed in the le bucket, by trace ID. le is a
// string because the final bucket's bound is +Inf, which JSON numbers
// cannot carry (same spelling as the Prometheus exposition).
type ExemplarView struct {
	LE      string    `json:"le"`
	Seconds float64   `json:"seconds"`
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
}

// TracesResponse is the body of GET /v1/traces.
type TracesResponse struct {
	Traces []TraceRecordView   `json:"traces"`
	Stats  obs.TraceStoreStats `json:"stats"`
	// Exemplars, present with ?exemplars=true, maps endpoint names to
	// their probconsd_http_request_seconds bucket exemplars.
	Exemplars map[string][]ExemplarView `json:"exemplars,omitempty"`
}

func traceRecordView(t obs.Trace) TraceRecordView {
	v := TraceRecordView{
		ID:         t.ID,
		Endpoint:   t.Endpoint,
		Status:     t.Status,
		Keep:       t.Keep,
		Start:      t.Start,
		DurationMS: float64(t.Duration.Nanoseconds()) / 1e6,
		Cache:      t.Cache,
		Error:      t.Error,
		Spans:      spanViews(t.Spans.All()),
	}
	if len(t.Events) > 0 {
		v.Events = make([]TraceEventView, len(t.Events))
		for i, e := range t.Events {
			v.Events[i] = TraceEventView{
				Name:     e.Name,
				Detail:   e.Detail,
				OffsetMS: float64(e.Offset.Nanoseconds()) / 1e6,
			}
		}
	}
	for i, name := range t.CounterNames {
		if i < len(t.CounterDelta) && t.CounterDelta[i] != 0 {
			if v.Counters == nil {
				v.Counters = make(map[string]int64, len(t.CounterNames))
			}
			v.Counters[name] = t.CounterDelta[i]
		}
	}
	return v
}

// parseTraceFilter decodes the /v1/traces query string. Decoding is
// strict — unknown parameters, repeated parameters, and out-of-range
// values are client errors — so typos fail loudly instead of silently
// matching everything. The bool reports whether exemplars were asked
// for. Fuzzed by FuzzTraceFilter.
func parseTraceFilter(q url.Values) (obs.TraceFilter, bool, error) {
	var f obs.TraceFilter
	exemplars := false
	one := func(key string) (string, bool, error) {
		vs, ok := q[key]
		if !ok {
			return "", false, nil
		}
		if len(vs) != 1 {
			return "", false, fmt.Errorf("parameter %q given %d times, want once", key, len(vs))
		}
		return vs[0], true, nil
	}
	for key := range q {
		switch key {
		case "endpoint", "id", "status", "min_status", "min_ms", "keep", "limit", "exemplars":
		default:
			return f, false, badRequest(fmt.Errorf("unknown parameter %q", key))
		}
	}
	var err error
	take := func(key string, apply func(string) error) {
		if err != nil {
			return
		}
		v, ok, e := one(key)
		if e != nil {
			err = e
			return
		}
		if ok {
			err = apply(v)
		}
	}
	take("endpoint", func(v string) error {
		f.Endpoint = v
		return nil
	})
	take("id", func(v string) error {
		f.ID = v
		return nil
	})
	take("status", func(v string) error {
		n, e := strconv.Atoi(v)
		if e != nil || n < 100 || n > 599 {
			return fmt.Errorf("status must be an HTTP status code, got %q", v)
		}
		f.Status = n
		return nil
	})
	take("min_status", func(v string) error {
		n, e := strconv.Atoi(v)
		if e != nil || n < 100 || n > 599 {
			return fmt.Errorf("min_status must be an HTTP status code, got %q", v)
		}
		f.MinStatus = n
		return nil
	})
	take("min_ms", func(v string) error {
		ms, e := strconv.ParseFloat(v, 64)
		if e != nil || ms < 0 || ms != ms || ms > 1e12 {
			return fmt.Errorf("min_ms must be a non-negative duration in milliseconds, got %q", v)
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
		return nil
	})
	take("keep", func(v string) error {
		switch v {
		case obs.KeepSlow, obs.KeepError, obs.KeepSampled, obs.KeepRecent:
			f.Keep = v
			return nil
		default:
			return fmt.Errorf("keep must be one of %s, %s, %s, %s; got %q",
				obs.KeepSlow, obs.KeepError, obs.KeepSampled, obs.KeepRecent, v)
		}
	})
	take("limit", func(v string) error {
		n, e := strconv.Atoi(v)
		if e != nil || n < 1 || n > maxTraceLimit {
			return fmt.Errorf("limit must be in [1, %d], got %q", maxTraceLimit, v)
		}
		f.Limit = n
		return nil
	})
	take("exemplars", func(v string) error {
		b, e := strconv.ParseBool(v)
		if e != nil {
			return fmt.Errorf("exemplars must be a boolean, got %q", v)
		}
		exemplars = b
		return nil
	})
	if err != nil {
		return f, false, badRequest(err)
	}
	return f, exemplars, nil
}

// exemplarViews collects the non-empty latency-bucket exemplars per
// endpoint — the metrics→traces link: a bucket's exemplar names the
// request ID to pass to /v1/traces?id=.
func (s *Server) exemplarViews() map[string][]ExemplarView {
	out := map[string][]ExemplarView{}
	names := make([]string, 0, len(s.m.endpoints))
	for name := range s.m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		em := s.m.endpoints[name]
		ex := em.latency.Exemplars()
		var views []ExemplarView
		for i, e := range ex {
			if e.TraceID == "" {
				continue
			}
			le := "+Inf"
			if i < len(obs.LatencyBuckets) {
				le = strconv.FormatFloat(obs.LatencyBuckets[i], 'g', -1, 64)
			}
			views = append(views, ExemplarView{LE: le, Seconds: e.Value, TraceID: e.TraceID, Time: e.Time})
		}
		if len(views) > 0 {
			out[name] = views
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// slowestViews renders the flight recorder's slowest held requests for
// /statsz.
func (s *Server) slowestViews(n int) []SlowestView {
	slowest := s.traces.Slowest(n)
	out := make([]SlowestView, len(slowest))
	for i, t := range slowest {
		out[i] = SlowestView{
			ID:         t.ID,
			Endpoint:   t.Endpoint,
			Status:     t.Status,
			DurationMS: float64(t.Duration.Nanoseconds()) / 1e6,
			Keep:       t.Keep,
		}
	}
	return out
}

// handleTraces serves GET /v1/traces.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	f, exemplars, err := parseTraceFilter(r.URL.Query())
	if err != nil {
		writeError(w, r, err)
		return
	}
	traces := s.traces.Query(f)
	resp := TracesResponse{
		Traces: make([]TraceRecordView, len(traces)),
		Stats:  s.traces.Stats(),
	}
	for i, t := range traces {
		resp.Traces[i] = traceRecordView(t)
	}
	if exemplars {
		resp.Exemplars = s.exemplarViews()
	}
	writeJSON(w, r, http.StatusOK, resp)
}

// DebugRequestsHandler serves the human-readable flight-recorder dump
// cmd/probconsd mounts at /debug/requests on the ops listener: one line
// per held trace, newest first, with compact span and event renderings.
// It accepts the same query parameters as /v1/traces (minus exemplars).
func (s *Server) DebugRequestsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			w.Header().Set("Allow", http.MethodGet)
			http.Error(w, "/debug/requests requires GET", http.StatusMethodNotAllowed)
			return
		}
		f, _, err := parseTraceFilter(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		traces := s.traces.Query(f)
		st := s.traces.Stats()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "flight recorder: %d traces shown / %d held (capacity %d), deposited %d, kept slow %d error %d sampled %d, dropped %d\n\n",
			len(traces), st.RetainedEntries+st.RecentEntries, st.Capacity,
			st.Deposited, st.KeptSlow, st.KeptError, st.KeptSampled,
			st.DroppedRecent+st.DroppedRetained)
		for _, t := range traces {
			fmt.Fprintf(w, "%s %-17s %-8s %3d %9.3fms keep=%-7s cache=%s",
				t.Start.Format("15:04:05.000"), t.ID, t.Endpoint, t.Status,
				float64(t.Duration.Nanoseconds())/1e6, t.Keep, orDash(t.Cache))
			for _, sp := range t.Spans.All() {
				fmt.Fprintf(w, " %s=%.3fms", sp.Name, float64(sp.Duration.Nanoseconds())/1e6)
			}
			for _, e := range t.Events {
				fmt.Fprintf(w, " !%s", e.Name)
			}
			if t.Error != "" {
				fmt.Fprintf(w, " error=%q", t.Error)
			}
			fmt.Fprintln(w)
		}
	})
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
