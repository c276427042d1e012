package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"nulpa/internal/engine"
	"nulpa/internal/metrics"
)

// Liveness vs readiness: /healthz answers "is the process up" and never
// returns anything but 200 while the listener accepts connections — restart
// the process if it stops. /readyz answers "should this instance receive
// traffic": 503 while the engine registry is empty (a binary built without
// detectors can serve nothing) and 503 once graceful drain has begun, so a
// load balancer stops routing new jobs while in-flight ones unwind.

func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// BeginDrain flips readiness off and closes scheduler admission: /readyz
// turns 503 for the load balancer, and every subsequent POST /jobs is
// refused with 503 + Retry-After (shed reason "draining") while in-flight
// jobs unwind. The -serve shutdown path calls it before CancelAll so health
// checks fail ahead of the listener closing.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.sched.BeginDrain()
}

func (s *Server) readyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	ready := s.readyCheck
	if ready == nil {
		ready = func() bool { return len(engine.List()) > 0 }
	}
	if !ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("not ready: no detectors registered\n"))
		return
	}
	w.Write([]byte("ready\n"))
}

// jobFlight handles GET /jobs/{id}/flight: the job's post-mortem bundle. A
// job that faulted, degraded, or hit its deadline serves the bundle frozen
// at that moment; otherwise a fresh capture (reason "request") is taken from
// the monitor's retained ring — works on live and cleanly finished jobs
// alike.
func (s *Server) jobFlight(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
		return
	}
	if j.traceID != "" {
		w.Header().Set("X-Trace-Id", j.traceID)
	}
	b := j.flightBundle()
	if b == nil {
		b = j.health.Flight("request")
	}
	writeJSON(w, http.StatusOK, b)
}

// mLiveLagged counts SSE clients disconnected for falling behind the frame
// stream — the fan-out bound that keeps one stalled reader from holding a
// growing backlog for the health monitor.
var mLiveLagged = metrics.NewCounter("httpapi_live_lagged_total",
	"SSE subscribers disconnected because they lagged the frame stream.")

// liveJob handles GET /debug/live/{id}: the job's health frames as a
// Server-Sent Events stream. The subscription is atomic with a catch-up
// snapshot, so a client connecting mid-run (or even after the run finished)
// receives every retained frame exactly once, then one "frame" event per
// iteration as they happen, then an "end" event carrying the job's final
// status when the run closes its monitor. Each subscriber owns a fixed
// buffer; a client that cannot keep up is disconnected with a terminal
// "lagged" event (carrying the dropped-frame count) instead of receiving a
// silently gapped stream — reconnect to replay the retained ring. Long-poll
// clients should also note the server's 60s write timeout and reconnect.
func (s *Server) liveJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	if j.traceID != "" {
		w.Header().Set("X-Trace-Id", j.traceID)
	}
	w.WriteHeader(http.StatusOK)

	past, sub := j.health.Subscribe()
	defer sub.Cancel()
	enc := json.NewEncoder(w)
	for _, f := range past {
		fmt.Fprintf(w, "event: frame\ndata: ")
		enc.Encode(f)
		fmt.Fprintf(w, "\n")
	}
	fl.Flush()
	for {
		select {
		case f, ok := <-sub.Frames:
			if !ok {
				fmt.Fprintf(w, "event: end\ndata: ")
				enc.Encode(j.status())
				fmt.Fprintf(w, "\n")
				fl.Flush()
				return
			}
			fmt.Fprintf(w, "event: frame\ndata: ")
			enc.Encode(f)
			fmt.Fprintf(w, "\n")
			fl.Flush()
			// The write above may have blocked on a slow client while the
			// run kept producing; once the subscriber's buffer overflowed,
			// the stream has a gap — terminate it honestly.
			if n := sub.Dropped(); n > 0 {
				mLiveLagged.Inc()
				fmt.Fprintf(w, "event: lagged\ndata: {\"dropped\":%d}\n\n", n)
				fl.Flush()
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
