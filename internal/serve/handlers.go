package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// maxRequestBody caps a /query body; multi queries with the full
// source cap fit in a fraction of this.
const maxRequestBody = 1 << 20

// retryAfterSeconds is the 429 Retry-After hint. One second is the
// order of the queue's drain time at the default depth and typical
// per-query service times; clients with better information (bfsload's
// open-loop pacer) may ignore it.
const retryAfterSeconds = 1

// Handler returns the daemon's HTTP surface:
//
//	POST /query         run one query (JSON body; see Query)
//	GET  /graphs        list resident graphs
//	GET  /healthz       liveness + admission gauges
//	GET  /readyz        readiness (503 until armed, and again during drain)
//	GET  /metrics       metric families (Prometheus text exposition)
//	GET  /debug/flight  flight-recorder dump (Chrome trace JSON)
//	GET  /debug/slo     SLO verdicts: burn rates and breach state
//
// Every response is JSON except /metrics (text) and /debug/flight
// (a trace file). Errors use the {"error": {"code", "message"}}
// envelope with the *Error status.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/graphs", s.handleGraphs)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/metrics", s.registry.Handler())
	mux.HandleFunc("/debug/flight", s.handleFlight)
	mux.HandleFunc("/debug/slo", s.handleSLO)
	return mux
}

// writeError encodes a *Error as the JSON error envelope, attaching
// the Retry-After hint to 429s.
func writeError(w http.ResponseWriter, serr *Error) {
	w.Header().Set("Content-Type", "application/json")
	if serr.Status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
	}
	w.WriteHeader(serr.Status)
	_ = json.NewEncoder(w).Encode(map[string]*Error{"error": serr})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleQuery(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(w, &Error{
			Status: http.StatusMethodNotAllowed, Code: "bad_request",
			Message: "use POST with a JSON body",
		})
		return
	}
	var q Query
	body, err := io.ReadAll(io.LimitReader(req.Body, maxRequestBody))
	if err != nil {
		writeError(w, badRequest(fmt.Sprintf("reading body: %v", err)))
		return
	}
	if err := json.Unmarshal(body, &q); err != nil {
		writeError(w, badRequest(fmt.Sprintf("malformed query JSON: %v", err)))
		return
	}
	resp, serr := s.Query(req.Context(), q)
	if serr != nil {
		writeError(w, serr)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string][]GraphInfo{"graphs": s.Graphs()})
}

// healthzPayload is the /healthz body: liveness plus the admission
// gauges a load balancer or autoscaler would watch.
type healthzPayload struct {
	Status    string `json:"status"`
	Graphs    int    `json:"graphs"`
	UptimeSec int64  `json:"uptime_sec"`
	Inflight  int64  `json:"inflight"`
	Queued    int64  `json:"queued"`
	Slots     int64  `json:"slots"`
	Queue     int64  `json:"queue_depth"`
	Sampled   uint64 `json:"traversals_sampled"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	n := len(s.graphs)
	s.mu.RUnlock()
	_, kept := s.SamplerStats()
	writeJSON(w, healthzPayload{
		Status:    "ok",
		Graphs:    n,
		UptimeSec: int64(time.Since(s.start).Seconds()),
		Inflight:  s.gate.running.Load(),
		Queued:    s.gate.queued.Load(),
		Slots:     int64(cap(s.gate.slots)),
		Queue:     s.gate.depth,
		Sampled:   kept,
	})
}

// handleReadyz is the readiness probe: 200 once the embedder has armed
// the server (graphs loaded, listener accepting) and until drain
// starts. Liveness stays on /healthz — a draining daemon is alive but
// must fall out of rotation, which is exactly the split the two probes
// encode.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.Ready() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte("{\"status\":\"unready\"}\n"))
		return
	}
	writeJSON(w, map[string]string{"status": "ready"})
}

// handleSLO reports the burn-rate engine's latest verdicts. With no
// objectives configured the payload is an empty list, not an error —
// "nothing to watch" is a valid configuration.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"objectives": s.SLOVerdicts(),
		"incidents":  int64(s.incidentCell.Value()),
		"last_incident_dir": func() string {
			d, _ := s.lastIncidentDir.Load().(string)
			return d
		}(),
	})
}

// handleFlight dumps the flight recorder as a standalone Chrome trace:
// the last FlightKeep sampled traversals, loadable in Perfetto and
// checkable with cmd/tracecheck. Dumping is safe while queries run.
func (s *Server) handleFlight(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.ring.WriteTrace(w); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}
