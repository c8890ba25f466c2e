package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/metrics/telemetry"
	"repro/internal/webui"
)

// Server is the front tier's HTTP surface: the same /api contract a
// single cqadsweb node serves, answered by routing to the shard
// cluster behind a Router. It holds no corpus — every answer byte
// comes from a shard — so the front tier scales horizontally and
// restarts statelessly.
//
//	GET  /                 cluster topology (domains → shard URLs)
//	GET  /api/ask?q=...    classify once, forward to the owning shard
//	POST /api/ads          fan out by the ad's Domain field
//	DELETE /api/ads/{id}   forward (?domain=... required)
//	POST /api/rebalance    start a live partition split/move (202)
//	GET  /api/status       scatter-gathered per-shard status view
//	GET  /healthz          cluster health rollup with per-shard states
//
// Degraded mode: when a shard is unreachable its domains answer an
// empty-answers envelope carrying the error, with HTTP 502 on the
// single-question endpoint; other domains are unaffected.
type Server struct {
	rt  *Router
	reb Rebalancer
	mux *http.ServeMux
}

// RebalanceRequest asks the front tier to move one hash slice of a
// partitioned domain to a new owner: Source names the slice currently
// in the routing table that the move splits, TargetSlice the child
// slice the node at TargetURL takes over (the source keeps the other
// child).
type RebalanceRequest struct {
	Domain      string `json:"domain"`
	Source      string `json:"source"`
	TargetURL   string `json:"target_url"`
	TargetSlice string `json:"target_slice"`
}

// Rebalancer drives live partition moves. The concrete implementation
// lives in the rebalance package (which imports this one — the
// interface is defined here to keep the dependency one-way); Server
// only needs start-and-report.
type Rebalancer interface {
	// Start begins a move; it returns once the move is admitted (the
	// transfer itself runs in the background) and errors if a move is
	// already running or the request is invalid.
	Start(req RebalanceRequest) error
	// Status reports the current (or last finished) move's progress as
	// a JSON object, and whether a move is running right now.
	Status() (progress json.RawMessage, active bool)
}

// ServerOptions carries the front tier's optional collaborators.
type ServerOptions struct {
	// Rebalancer enables POST /api/rebalance; nil answers 501.
	Rebalancer Rebalancer
}

// NewServer wraps a Router in the front-tier handler.
func NewServer(rt *Router) *Server { return NewServerWith(rt, ServerOptions{}) }

// NewServerWith wraps a Router with optional collaborators wired in.
func NewServerWith(rt *Router, opts ServerOptions) *Server {
	s := &Server{rt: rt, reb: opts.Rebalancer, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /{$}", s.handleIndex)
	s.mux.HandleFunc("GET /api/ask", s.handleAsk)
	s.mux.HandleFunc("POST /api/ads", s.handleInsertAd)
	s.mux.HandleFunc("DELETE /api/ads/{id}", s.handleDeleteAd)
	s.mux.HandleFunc("POST /api/rebalance", s.handleRebalance)
	s.mux.HandleFunc("GET /api/status", s.handleStatus)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// jsonError mirrors webui's error envelope.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// degradedEnvelope is the empty answer a dead shard's domain serves:
// the shape clients already parse, with the failure attached.
type degradedEnvelope struct {
	Domain  string     `json:"domain"`
	Answers []struct{} `json:"answers"`
	Error   string     `json:"error"`
}

func degraded(err error) degradedEnvelope {
	env := degradedEnvelope{Answers: []struct{}{}, Error: err.Error()}
	var re *RouteError
	if errors.As(err, &re) {
		env.Domain = re.Domain
	}
	return env
}

// routeErrorStatus maps a routing failure to the front tier's HTTP
// status: a domain nobody hosts is the request's problem (404), an
// unanswering shard is the cluster's (502).
func routeErrorStatus(err error) int {
	if errors.Is(err, ErrNoShard) {
		return http.StatusNotFound
	}
	return http.StatusBadGateway
}

// proxy copies an upstream shard response verbatim.
func proxy(w http.ResponseWriter, p *Proxied) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(p.Status)
	_, _ = w.Write(p.Body)
}

// handleIndex reports the cluster topology.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	owners := make(map[string]string, len(s.rt.domains))
	for _, d := range s.rt.domains {
		owners[d], _ = s.rt.Owner(d)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"service": "cqads front tier",
		"domains": owners,
		"shards":  s.rt.URLs(),
	})
}

// handleAsk answers one question: classified once here, answered by
// the owning shard, proxied byte-identically.
func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		jsonError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	p, err := s.rt.Ask(r.Context(), r.URL.Query().Get("domain"), q)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(routeErrorStatus(err))
		_ = json.NewEncoder(w).Encode(degraded(err))
		return
	}
	proxy(w, p)
}

// handleInsertAd fans one ad out to the shard owning its Domain field,
// forwarding the body untouched so the shard's schema conversion (and
// error reporting) is authoritative.
func (s *Server) handleInsertAd(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	var probe struct {
		Domain string `json:"domain"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if probe.Domain == "" {
		jsonError(w, http.StatusBadRequest, "missing domain field")
		return
	}
	var p *Proxied
	if pin := r.Header.Get(webui.AdIDHeader); pin != "" {
		p, err = s.rt.ForwardAdPinned(r.Context(), probe.Domain, body, pin)
	} else {
		p, err = s.rt.ForwardAd(r.Context(), probe.Domain, body)
	}
	if err != nil {
		jsonError(w, routeErrorStatus(err), "%v", err)
		return
	}
	proxy(w, p)
}

// handleRebalance admits one live partition move.
func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	if s.reb == nil {
		jsonError(w, http.StatusNotImplemented, "no rebalance coordinator configured")
		return
	}
	var req RebalanceRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	if err := s.reb.Start(req); err != nil {
		jsonError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(map[string]string{"state": "started"})
}

// handleDeleteAd forwards an expiry to the owning shard.
func (s *Server) handleDeleteAd(w http.ResponseWriter, r *http.Request) {
	domain := r.URL.Query().Get("domain")
	if domain == "" {
		jsonError(w, http.StatusBadRequest, "missing domain parameter")
		return
	}
	p, err := s.rt.ForwardDelete(r.Context(), domain, r.PathValue("id"))
	if err != nil {
		jsonError(w, routeErrorStatus(err), "%v", err)
		return
	}
	proxy(w, p)
}

// Cluster health states served by the front tier's /healthz.
const (
	// ClusterServing: every shard is reachable and serving.
	ClusterServing = "serving"
	// ClusterDegraded: at least one shard is unreachable or unhealthy;
	// its domains answer empty with errors, the rest serve normally.
	ClusterDegraded = "degraded"
	// ClusterDown: no shard answered; the front tier cannot serve.
	ClusterDown = "down"
)

// rollup folds per-shard health into one cluster state.
func rollup(views []ShardView) string {
	healthy := 0
	for _, v := range views {
		if v.Reachable && v.StatusCode == http.StatusOK && v.State == "serving" {
			healthy++
		}
	}
	switch healthy {
	case len(views):
		return ClusterServing
	case 0:
		return ClusterDown
	default:
		return ClusterDegraded
	}
}

// handleHealthz scatter-gathers shard /healthz probes into a cluster
// rollup: 200 while any shard serves (the front tier still answers
// the live domains), 503 only when the whole cluster is down.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	views := s.rt.ClusterHealth(r.Context())
	state := rollup(views)
	w.Header().Set("Content-Type", "application/json")
	if state == ClusterDown {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"state": state, "shards": views})
}

// endpointRollup is one endpoint's cluster-wide merged latency: the
// shards' raw histogram buckets are integer-added (telemetry.Merge),
// so the rollup is exact to bucket resolution and associative —
// folding the shards in any order yields the same percentiles, which
// the merge-associativity test pins.
type endpointRollup struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
}

// clusterLatency is the /api/status "cluster_latency" block.
type clusterLatency struct {
	// Shards is how many reachable shards contributed histograms.
	Shards   int            `json:"shards"`
	Ask      endpointRollup `json:"ask"`
	Ingest   endpointRollup `json:"ingest"`
	ReplPoll endpointRollup `json:"repl_poll"`
}

// shardLatencyWire is the slice of a shard's status body the rollup
// reads: each endpoint's raw bucket counts and nanosecond sum.
type shardLatencyWire struct {
	Latency struct {
		Ask      endpointWire `json:"ask"`
		Ingest   endpointWire `json:"ingest"`
		ReplPoll endpointWire `json:"repl_poll"`
	} `json:"latency"`
}

type endpointWire struct {
	SumNs   uint64   `json:"sum_ns"`
	Buckets []uint64 `json:"buckets"`
}

// rollupLatency merges every reachable shard's latency block.
func rollupLatency(views []ShardView) clusterLatency {
	var out clusterLatency
	var ask, ingest, replPoll telemetry.Snapshot
	for _, v := range views {
		if v.Body == nil {
			continue
		}
		var wire shardLatencyWire
		if json.Unmarshal(v.Body, &wire) != nil {
			continue
		}
		out.Shards++
		ask = ask.Merge(telemetry.SnapshotFromWire(wire.Latency.Ask.Buckets, wire.Latency.Ask.SumNs))
		ingest = ingest.Merge(telemetry.SnapshotFromWire(wire.Latency.Ingest.Buckets, wire.Latency.Ingest.SumNs))
		replPoll = replPoll.Merge(telemetry.SnapshotFromWire(wire.Latency.ReplPoll.Buckets, wire.Latency.ReplPoll.SumNs))
	}
	render := func(s telemetry.Snapshot) endpointRollup {
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		return endpointRollup{
			Count:  int64(s.Count),
			MeanMs: s.Mean() / 1e6,
			P50Ms:  ms(s.Quantile(0.50)),
			P99Ms:  ms(s.Quantile(0.99)),
			P999Ms: ms(s.Quantile(0.999)),
		}
	}
	out.Ask = render(ask)
	out.Ingest = render(ingest)
	out.ReplPoll = render(replPoll)
	return out
}

// handleStatus scatter-gathers shard /api/status reports into one
// cluster view, each shard's own report embedded verbatim, plus:
// "cluster_latency", the exact cluster-wide merge of every shard's raw
// latency histograms; the front tier's own "front" block (per-group
// read latency as observed from this router, the hedge delay in force,
// and the process-wide hedge counters); and "rebalance", the
// coordinator's progress when one is configured. All counts are
// cumulative and monotonic — there is no reset — matching the scrape
// contract of a shard's own latency block.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	views := s.rt.ClusterStatus(r.Context())
	reachable := 0
	for _, v := range views {
		if v.Reachable {
			reachable++
		}
	}
	out := map[string]any{
		"cluster": map[string]any{
			"shards_total":     len(views),
			"shards_reachable": reachable,
		},
		"cluster_latency": rollupLatency(views),
		"front": map[string]any{
			"hedges":     telemetry.Front.Hedges.Load(),
			"hedge_wins": telemetry.Front.HedgeWins.Load(),
			"groups":     s.rt.GroupLatencies(),
		},
		"shards": views,
	}
	if s.reb != nil {
		progress, active := s.reb.Status()
		out["rebalance"] = map[string]any{"active": active, "progress": progress}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
