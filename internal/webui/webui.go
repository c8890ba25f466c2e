// Package webui provides the HTML front end the paper describes in
// Sec. 4.5: "The answers are displayed on an HTML interface in a
// tabular manner." It wraps a core.System in an http.Handler with a
// question form, a tabular answer view that distinguishes exact from
// ranked partial matches (showing Rank_Sim and the similarity measure
// used, as in Table 2), and a JSON API for programmatic use.
package webui

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/metrics/telemetry"
	"repro/internal/partition"
	"repro/internal/persist"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

// Promoter flips a follower writable and stops its replication stream
// — implemented by replica.Follower and wired in by the process that
// owns the tail loop.
type Promoter interface {
	Promote() error
}

// Failover is the election agent's HTTP surface — implemented by
// failover.Agent. The server exposes its lease protocol at
// POST /api/repl/heartbeat and /api/repl/vote and its leader view at
// GET /api/repl/leader.
type Failover interface {
	Leader() (url string, epoch uint64, role string)
	HandleHeartbeat(failover.Heartbeat) failover.HeartbeatResponse
	HandleVote(failover.VoteRequest) failover.VoteResponse
}

// Options configures the optional replication roles of a Server.
type Options struct {
	// Promoter, when set, serves POST /api/repl/promote — flipping
	// this follower writable for manual failover. Without it the
	// endpoint falls back to core.System.Promote (no stream to stop).
	Promoter Promoter
	// Failover, when set, wires this node into a self-healing replica
	// set: heartbeats and votes are served to peers, and
	// GET /api/repl/leader answers with the agent's live view instead
	// of this node's static storage role.
	Failover Failover
}

// Server is the HTTP front end over a running CQAds instance.
type Server struct {
	sys  *core.System
	mux  *http.ServeMux
	tpl  *template.Template
	opts Options
	// recordKeys holds each table's record keys with their column
	// indexes, sorted for the JSON encoder; filled once by
	// NewServerWith and read-only after.
	recordKeys map[string][]recordKey
}

// NewServer wraps sys. The handler serves:
//
//	GET /                     the question form
//	GET /ask?q=...            HTML answer table (optional &domain=...)
//	GET /api/ask?q=...        JSON answers
//	GET /api/status           corpus versions + persistence/replication state
//	GET /healthz              cheap liveness probe (serving/recovering/write-failed)
//	POST /api/ads             ingest one ad: {"domain": ..., "record": {...}}
//	DELETE /api/ads/{id}      expire an ad (?domain=... required)
//	GET /api/repl/snapshot    replication: initial state transfer (?partition= filters to a hash slice)
//	GET /api/repl/wal?from=N  replication: long-polled framed op stream
//	POST /api/repl/promote    replication: flip this follower writable
//	POST /api/partition/retire  rebalance: narrow this node's hosted hash slice
//	GET /api/repl/leader      failover: who leads this replica set
//	POST /api/repl/heartbeat  failover: leader lease renewal
//	POST /api/repl/vote       failover: election ballot
//
// The ingestion endpoints mutate the live store (an ad POSTed here is
// returned by /api/ask seconds — in fact, immediately — later, and a
// DELETEd ad stops appearing at once) and take an optional
// ?ack=local|quorum durability level: quorum writes confirm only after
// a majority of the replica set has durably applied them (202 when the
// quorum wait times out — applied locally, unconfirmed). The /api/repl
// endpoints are the WAL-shipping and failover protocol: a durable
// primary serves snapshot + wal to followers (internal/replica), every
// set member serves heartbeat/vote/leader (internal/failover), and a
// follower serves promote.
func NewServer(sys *core.System) *Server { return NewServerWith(sys, Options{}) }

// NewServerWith is NewServer plus replication-role options.
func NewServerWith(sys *core.System, opts Options) *Server {
	s := &Server{
		sys:  sys,
		mux:  http.NewServeMux(),
		tpl:  template.Must(template.New("page").Parse(pageTemplate)),
		opts: opts,
	}
	db := sys.DB()
	s.recordKeys = make(map[string][]recordKey)
	for _, d := range db.Domains() {
		tbl, _ := db.TableForDomain(d)
		s.recordKeys[d] = recordKeys(tbl.Schema())
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/ask", s.handleAsk)
	s.mux.HandleFunc("/api/ask", timed(&telemetry.Latency.Ask, s.handleAPI))
	s.mux.HandleFunc("/api/suggest", s.handleSuggest)
	s.mux.HandleFunc("GET /api/status", s.handleStatus)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /api/ads", timed(&telemetry.Latency.Ingest, s.handleInsertAd))
	s.mux.HandleFunc("DELETE /api/ads/{id}", timed(&telemetry.Latency.Ingest, s.handleDeleteAd))
	s.mux.HandleFunc("GET /api/repl/snapshot", s.handleReplSnapshot)
	s.mux.HandleFunc("GET /api/repl/wal", timed(&telemetry.Latency.ReplPoll, s.handleReplWAL))
	s.mux.HandleFunc("POST /api/repl/promote", s.handleReplPromote)
	s.mux.HandleFunc("POST /api/partition/retire", s.handlePartitionRetire)
	s.mux.HandleFunc("GET /api/repl/leader", s.handleReplLeader)
	s.mux.HandleFunc("POST /api/repl/heartbeat", s.handleReplHeartbeat)
	s.mux.HandleFunc("POST /api/repl/vote", s.handleReplVote)
	return s
}

// handleSuggest serves keyword autocompletion from the domain trie:
// GET /api/suggest?domain=cars&prefix=ho → ["honda", ...].
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	domain := r.URL.Query().Get("domain")
	prefix := strings.ToLower(strings.TrimSpace(r.URL.Query().Get("prefix")))
	w.Header().Set("Content-Type", "application/json")
	tagger := s.sys.Tagger(domain)
	if tagger == nil || prefix == "" {
		_, _ = w.Write([]byte("[]"))
		return
	}
	suggestions := tagger.Trie.Suggest(prefix, 10)
	if suggestions == nil {
		suggestions = []string{}
	}
	_ = json.NewEncoder(w).Encode(suggestions)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// jsonError writes a JSON error payload with the given status.
func jsonError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleStatus reports the live corpus, durability and replication
// state:
//
//	GET /api/status
//
// Per domain: live ad count, allocated RowID slots, and the table's
// mutation version. The persistence block reports whether the server
// is durable and, when it is, the last logged operation sequence, the
// sequence the on-disk snapshot covers, the current WAL size, and the
// wall time of the last checkpoint — the numbers an operator needs to
// judge replay distance after a crash. The replication block reports
// the node's role, its applied/observed sequence cursors and lag, plus
// the process-wide shipping counters (ops shipped and applied,
// snapshot transfers, last observed lag).
//
// The latency block reports, per instrumented endpoint (ask, ingest,
// repl_poll), the cumulative request count and the
// mean/p50/p90/p99/p999 service times in milliseconds. Counts and
// histogram mass are monotonic for the process lifetime — there is
// deliberately no reset parameter, so scrapers derive rates and
// interval percentiles by differencing successive samples and can
// never corrupt each other's view.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.sys.Status()
	type domainJSON struct {
		Domain  string `json:"domain"`
		Live    int    `json:"live"`
		Slots   int    `json:"slots"`
		Version uint64 `json:"version"`
	}
	type persistenceJSON struct {
		Enabled        bool   `json:"enabled"`
		Dir            string `json:"dir,omitempty"`
		Seq            uint64 `json:"seq,omitempty"`
		CheckpointSeq  uint64 `json:"checkpoint_seq,omitempty"`
		WALBytes       int64  `json:"wal_bytes,omitempty"`
		LastCheckpoint string `json:"last_checkpoint,omitempty"`
		Failed         bool   `json:"failed,omitempty"`
		// LastCompactError surfaces a failing background compaction —
		// the only checkpoint path with no caller to return an error
		// to.
		LastCompactError string `json:"last_compact_error,omitempty"`
	}
	type replCountersJSON struct {
		OpsShipped       int64 `json:"ops_shipped"`
		OpsApplied       int64 `json:"ops_applied"`
		SnapshotsServed  int64 `json:"snapshots_served"`
		SnapshotsFetched int64 `json:"snapshots_fetched"`
		LagOps           int64 `json:"lag_ops"`
	}
	type replicationJSON struct {
		Role       string           `json:"role"`
		Epoch      uint64           `json:"epoch"`
		QuorumSize int              `json:"quorum_size"`
		AppliedSeq uint64           `json:"applied_seq"`
		PrimarySeq uint64           `json:"primary_seq"`
		LagOps     uint64           `json:"lag_ops"`
		ReadOnly   bool             `json:"read_only"`
		Counters   replCountersJSON `json:"counters"`
	}
	type admissionJSON struct {
		MaxWALBytes      int64 `json:"max_wal_bytes"`
		MaxPendingQuorum int   `json:"max_pending_quorum"`
		PendingQuorum    int   `json:"pending_quorum"`
	}
	type partitionJSON struct {
		// Partitioned reports whether this node hosts a hash slice of
		// one domain rather than whole domains; Slice is the slice
		// currently hosted ("h0/1" — the whole key space — when not
		// partitioned). The slice narrows when a rebalance retires part
		// of it to another node.
		Partitioned bool   `json:"partitioned"`
		Slice       string `json:"slice"`
	}
	out := struct {
		Domains     []domainJSON    `json:"domains"`
		Partition   partitionJSON   `json:"partition"`
		Persistence persistenceJSON `json:"persistence"`
		Replication replicationJSON `json:"replication"`
		Admission   admissionJSON   `json:"admission"`
		Latency     latencyJSON     `json:"latency"`
	}{Domains: []domainJSON{}, Latency: latencyStatus()}
	out.Partition = partitionJSON{
		Partitioned: s.sys.Partitioned(),
		Slice:       s.sys.PartitionSlice().String(),
	}
	for _, d := range st.Domains {
		out.Domains = append(out.Domains, domainJSON{
			Domain: d.Domain, Live: d.Live, Slots: d.Slots, Version: d.Version,
		})
	}
	out.Persistence = persistenceJSON{
		Enabled:          st.Persistence.Enabled,
		Dir:              st.Persistence.Dir,
		Seq:              st.Persistence.Seq,
		CheckpointSeq:    st.Persistence.CheckpointSeq,
		WALBytes:         st.Persistence.WALBytes,
		Failed:           st.Persistence.Failed,
		LastCompactError: st.Persistence.LastCompactError,
	}
	if !st.Persistence.LastCheckpoint.IsZero() {
		out.Persistence.LastCheckpoint = st.Persistence.LastCheckpoint.Format(time.RFC3339Nano)
	}
	out.Admission = admissionJSON{
		MaxWALBytes:      st.Admission.MaxWALBytes,
		MaxPendingQuorum: st.Admission.MaxPendingQuorum,
		PendingQuorum:    st.Admission.PendingQuorum,
	}
	out.Replication = replicationJSON{
		Role:       st.Replication.Role,
		Epoch:      st.Replication.Epoch,
		QuorumSize: st.Replication.QuorumSize,
		AppliedSeq: st.Replication.AppliedSeq,
		PrimarySeq: st.Replication.PrimarySeq,
		LagOps:     st.Replication.LagOps,
		ReadOnly:   st.Replication.ReadOnly,
		Counters: replCountersJSON{
			OpsShipped:       telemetry.Repl.OpsShipped.Load(),
			OpsApplied:       telemetry.Repl.OpsApplied.Load(),
			SnapshotsServed:  telemetry.Repl.SnapshotsServed.Load(),
			SnapshotsFetched: telemetry.Repl.SnapshotsFetched.Load(),
			LagOps:           telemetry.Repl.LagOps.Load(),
		},
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// handleHealthz is the cheap probe for load balancers and the
// replication router:
//
//	GET /healthz
//
// Body: {"state", "role", "epoch", "applied_seq", "lag_ops"}. State is
// one of
// "serving" (200), "write-failed" (200 — reads still work; the
// durability latch only refuses ingestion until restart), and
// "recovering" (503 — a follower is mid-reset and reads may
// straddle old and new corpus; probes should steer traffic away until
// it clears).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	health := s.sys.Health()
	st := s.sys.Status().Replication
	w.Header().Set("Content-Type", "application/json")
	if health == core.HealthRecovering {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"state":       health,
		"role":        st.Role,
		"epoch":       st.Epoch,
		"applied_seq": st.AppliedSeq,
		"lag_ops":     st.LagOps,
	})
}

// handleInsertAd ingests one ad into a live domain:
//
//	POST /api/ads?ack=quorum
//	{"domain": "cars", "record": {"make": "honda", "price": 12000}}
//
// Values are converted against the domain schema: Type III columns
// take JSON numbers (or numeric strings), all others take strings.
// Missing columns store NULL. The ack parameter picks the durability
// level: "local" (default) confirms on the local fsync'd WAL append,
// "quorum" confirms only after a majority of the replica set has
// durably applied the insert. Responds 201 with {"domain", "id"} when
// confirmed; 202 with the same body plus "error" when a quorum write
// timed out gathering acks — the ad IS applied and locally durable,
// retrying would duplicate it.
func (s *Server) handleInsertAd(w http.ResponseWriter, r *http.Request) {
	ack, err := core.ParseAckLevel(r.URL.Query().Get("ack"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req struct {
		Domain string         `json:"domain"`
		Record map[string]any `json:"record"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	tbl, ok := s.sys.DB().TableForDomain(req.Domain)
	if !ok {
		jsonError(w, http.StatusNotFound, "unknown domain %q", req.Domain)
		return
	}
	values, err := convertRecord(tbl.Schema(), req.Record)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var id sqldb.RowID
	if pinHdr := r.Header.Get(AdIDHeader); pinHdr != "" {
		// A pinned ingest (shard front tier re-routing an ad to the
		// partition owning its key): the ad must land on exactly this
		// RowID, and a node not owning the key's hash answers 421.
		pin, perr := strconv.Atoi(pinHdr)
		if perr != nil || pin < 0 {
			jsonError(w, http.StatusBadRequest, "invalid %s header %q", AdIDHeader, pinHdr)
			return
		}
		id, err = s.sys.InsertAdPinnedWithAck(req.Domain, values, sqldb.RowID(pin), ack)
	} else {
		id, err = s.sys.InsertAdWithAck(req.Domain, values, ack)
	}
	if err != nil && !errors.Is(err, core.ErrQuorumUnavailable) {
		writeIngestError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	out := map[string]any{"domain": req.Domain, "id": id}
	if err != nil {
		// Applied and locally durable, but the majority did not confirm
		// in time: accepted, not (yet) quorum-safe.
		out["error"] = err.Error()
		w.WriteHeader(http.StatusAccepted)
	} else {
		w.WriteHeader(http.StatusCreated)
	}
	_ = json.NewEncoder(w).Encode(out)
}

// ingestErrorStatus classifies an InsertAd/DeleteAd failure: a
// durability fault is the server's problem (503 — the ad may even sit
// in memory unlogged; the error text carries its id), admission
// control shedding load is a back-off request (429 with Retry-After —
// nothing was written), a read-only replica is a routing problem (403
// — write to the primary or promote), an ad addressed to a domain this
// shard does not host is a misdirected request (421 — the shard front
// tier routes by the Domain field; landing here means the shard map
// and the request disagree), anything else is the request's problem.
func ingestErrorStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrDurabilityLost):
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrReadOnlyReplica):
		return http.StatusForbidden
	case errors.Is(err, core.ErrNotHosted):
		return http.StatusMisdirectedRequest
	default:
		return http.StatusBadRequest
	}
}

// writeIngestError maps an ingest failure onto the wire, adding the
// Retry-After hint on overload responses.
func writeIngestError(w http.ResponseWriter, err error) {
	status := ingestErrorStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	jsonError(w, status, "%v", err)
}

// handleDeleteAd expires an ad:
//
//	DELETE /api/ads/{id}?domain=cars&ack=quorum
//
// Responds 200 with {"domain", "id"} on success, 404 for unknown
// domains or rows already gone, 202 when a quorum-acked delete timed
// out gathering majority confirmation (the delete IS applied and
// locally durable).
func (s *Server) handleDeleteAd(w http.ResponseWriter, r *http.Request) {
	domain := r.URL.Query().Get("domain")
	if domain == "" {
		jsonError(w, http.StatusBadRequest, "missing domain parameter")
		return
	}
	ack, err := core.ParseAckLevel(r.URL.Query().Get("ack"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, "invalid ad id %q", r.PathValue("id"))
		return
	}
	err = s.sys.DeleteAdWithAck(domain, sqldb.RowID(id), ack)
	if err != nil && !errors.Is(err, core.ErrQuorumUnavailable) {
		status := http.StatusNotFound
		if s := ingestErrorStatus(err); s != http.StatusBadRequest {
			status = s // durability fault, overload, or read-only replica, not a missing row
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		jsonError(w, status, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	out := map[string]any{"domain": domain, "id": id}
	if err != nil {
		out["error"] = err.Error()
		w.WriteHeader(http.StatusAccepted)
	}
	_ = json.NewEncoder(w).Encode(out)
}

// maxReplPollWait caps how long one GET /api/repl/wal request may be
// held open; followers re-poll, so the cap only bounds a single
// request's lifetime.
const maxReplPollWait = 30 * time.Second

// handleReplSnapshot serves the snapshot transfer:
//
//	GET /api/repl/snapshot[?partition=h3/4]
//
// Body: the raw current snapshot blob (the on-disk checkpoint format;
// persist.DecodeSnapshot parses it). A follower resets from it — its
// baseline on a fresh directory, or after this primary compacted past
// its cursor — and polls the WAL from the snapshot's sequence. Only
// durable primaries can serve it; others answer 409.
//
// The partition parameter filters the transfer to one hash slice of
// the key space (rows whose key hashes outside it are dropped; slot
// counts are kept so RowIDs stay cluster-wide) — the transfer a
// rebalance target resets from. The WAL stream is never filtered.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	var blob []byte
	var err error
	if ps := r.URL.Query().Get("partition"); ps != "" {
		sl, perr := partition.Parse(ps)
		if perr != nil {
			jsonError(w, http.StatusBadRequest, "invalid partition parameter %q: %v", ps, perr)
			return
		}
		blob, err = s.sys.ReplSnapshotSection(sl)
	} else {
		blob, err = s.sys.ReplSnapshotBlob()
	}
	if err != nil {
		if errors.Is(err, core.ErrNotPrimary) {
			jsonError(w, http.StatusConflict, "%v", err)
			return
		}
		jsonError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	telemetry.Repl.SnapshotsServed.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(blob)
}

// handleReplWAL ships the operation log:
//
//	GET /api/repl/wal?from=<seq>[&epoch=<term>][&wait=<duration>]
//
// Responds 200 with a stream of length+CRC-framed operations (the WAL
// wire format; persist.OpReader decodes it) whose sequence exceeds
// `from`, plus X-Cqads-Seq (the primary's last committed sequence),
// X-Cqads-Epoch (its leadership term — the follower's stream fence)
// and X-Cqads-Checkpoint-Seq headers. With `wait`, an up-to-date
// follower is long-polled: the request blocks until new operations
// commit or the wait elapses (then 200 with an empty body — a
// heartbeat carrying the current sequence). When compaction has
// discarded the range above `from`, the response is 410 Gone and the
// follower must reset from /api/repl/snapshot.
//
// The `epoch` parameter is the log-matching half of epoch fencing: the
// term of the follower's last applied operation. If it disagrees with
// this leader's history at `from` — or the follower's cursor runs past
// this leader's log entirely — the follower holds a suffix written
// under a deposed term; the response is 409 Conflict and the follower
// must reset from a snapshot, dropping its diverged suffix.
//
// A request carrying X-Cqads-Node doubles as a durability
// acknowledgement: the cursor a named follower presents is exactly the
// position it has durably applied, which is what quorum-acked writes
// wait on.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "invalid from parameter %q", r.URL.Query().Get("from"))
		return
	}
	hasEpoch := false
	var fromEpoch uint64
	if es := r.URL.Query().Get("epoch"); es != "" {
		fromEpoch, err = strconv.ParseUint(es, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "invalid epoch parameter %q", es)
			return
		}
		hasEpoch = true
	}
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		wait, err = time.ParseDuration(ws)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "invalid wait parameter %q", ws)
			return
		}
		wait = min(wait, maxReplPollWait)
	}
	if node := r.Header.Get("X-Cqads-Node"); node != "" {
		s.sys.NoteFollowerAck(node, from)
	}
	deadline := time.Now().Add(wait)
	for {
		// Watch channel first, then the state check: the other order
		// can miss a commit that lands between them.
		watch, err := s.sys.ReplWatch()
		if err != nil {
			if errors.Is(err, core.ErrNotPrimary) {
				jsonError(w, http.StatusConflict, "%v", err)
				return
			}
			jsonError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		ops, seq, ckpt, err := s.sys.ReplOpsSince(from)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if from < ckpt {
			// Compaction discarded (from, ckpt]; the follower needs a
			// snapshot re-transfer.
			w.Header().Set("X-Cqads-Checkpoint-Seq", strconv.FormatUint(ckpt, 10))
			jsonError(w, http.StatusGone, "log compacted past seq %d (checkpoint is %d); reset from /api/repl/snapshot", from, ckpt)
			return
		}
		if hasEpoch {
			// Log matching: the term our history assigns the follower's
			// cursor must equal the term the follower applied it under.
			// A cursor beyond our tip (ok=false with from >= ckpt) is
			// the same divergence — a deposed primary's isolated suffix.
			epochAt, ok := s.sys.ReplEpochAt(from)
			if !ok || epochAt != fromEpoch {
				telemetry.Failover.FencedStreams.Add(1)
				jsonError(w, http.StatusConflict,
					"cursor %d@epoch %d diverges from this leader's history; reset from /api/repl/snapshot", from, fromEpoch)
				return
			}
		}
		if len(ops) > 0 || !time.Now().Before(deadline) {
			var buf []byte
			for _, op := range ops {
				if buf, err = persist.AppendFrame(buf, op); err != nil {
					jsonError(w, http.StatusInternalServerError, "%v", err)
					return
				}
			}
			telemetry.Repl.OpsShipped.Add(int64(len(ops)))
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("X-Cqads-Seq", strconv.FormatUint(seq, 10))
			w.Header().Set("X-Cqads-Epoch", strconv.FormatUint(s.sys.Epoch(), 10))
			w.Header().Set("X-Cqads-Checkpoint-Seq", strconv.FormatUint(ckpt, 10))
			_, _ = w.Write(buf)
			return
		}
		select {
		case <-watch:
		case <-r.Context().Done():
			return
		case <-time.After(time.Until(deadline)):
		}
	}
}

// handleReplPromote flips a follower writable:
//
//	POST /api/repl/promote
//
// The manual-failover escape hatch: replication stops (when the server
// was wired with the follower's tail loop via Options.Promoter) and
// the System accepts InsertAd/DeleteAd from then on. Responds 200 with
// the resulting role. Promoting an already-writable node is a no-op
// answering its current role — idempotent, so a failover controller
// and an operator issuing the same promote can race safely.
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	var err error
	if s.opts.Promoter != nil {
		err = s.opts.Promoter.Promote()
	} else {
		err = s.sys.Promote()
	}
	if err != nil {
		jsonError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"role": s.sys.Status().Replication.Role})
}

// handleReplLeader answers who leads this node's replica set:
//
//	GET /api/repl/leader
//
// Body: {"leader_url", "epoch", "role"}. On a node running a failover
// agent this is the agent's live view — the leader's advertised URL
// (possibly empty between a lease lapse and the next election), the
// current term, and this agent's election role. Without an agent the
// node reports its static storage role and term with no URL: a caller
// that sees a leading role ("primary", "promoted", "standalone")
// knows the node it asked is the write target. Routers poll this
// endpoint to re-point at elected leaders instead of trusting a
// static primary URL.
func (s *Server) handleReplLeader(w http.ResponseWriter, r *http.Request) {
	view := failover.LeaderView{Epoch: s.sys.Epoch(), Role: s.sys.Status().Replication.Role}
	if fo := s.opts.Failover; fo != nil {
		view.LeaderURL, view.Epoch, view.Role = fo.Leader()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(view)
}

// handleReplHeartbeat receives a leader's lease renewal:
//
//	POST /api/repl/heartbeat
//	{"epoch": 3, "leader": "http://a:8080", "seq": 412}
//
// Accepted heartbeats (200) renew this follower's lease and re-point
// its WAL tail; a heartbeat carrying a stale term is rejected (409)
// with the higher term, telling a deposed leader to step down. Nodes
// not running a failover agent answer 404.
func (s *Server) handleReplHeartbeat(w http.ResponseWriter, r *http.Request) {
	fo := s.opts.Failover
	if fo == nil {
		jsonError(w, http.StatusNotFound, "failover is not configured on this node")
		return
	}
	var hb failover.Heartbeat
	if err := json.NewDecoder(r.Body).Decode(&hb); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	resp := fo.HandleHeartbeat(hb)
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ok {
		w.WriteHeader(http.StatusConflict)
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// handleReplVote receives a candidate's ballot:
//
//	POST /api/repl/vote
//	{"epoch": 4, "candidate": "http://b:8080", "applied_seq": 412, "applied_epoch": 3}
//
// The response grants or denies the vote (always 200; denial is a
// protocol answer, not an HTTP failure) and carries this node's
// current term. Nodes not running a failover agent answer 404.
func (s *Server) handleReplVote(w http.ResponseWriter, r *http.Request) {
	fo := s.opts.Failover
	if fo == nil {
		jsonError(w, http.StatusNotFound, "failover is not configured on this node")
		return
	}
	var req failover.VoteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(fo.HandleVote(req))
}

// convertRecord maps a JSON record onto schema-typed sqldb values:
// Type III (quantitative) columns require numbers or numeric strings;
// Type I/II (categorical) columns stringify whatever arrives — a JSON
// number for a categorical column is stored as its decimal string, not
// as sqldb.Number, so it participates in the string-keyed machinery
// (TI/WS similarity, dedup) like every other categorical value and
// keys the hash index the way its string form does; JSON null stores
// NULL.
func convertRecord(sch *schema.Schema, record map[string]any) (map[string]sqldb.Value, error) {
	values := make(map[string]sqldb.Value, len(record))
	for col, raw := range record {
		attr, ok := sch.Attr(col)
		if !ok {
			return nil, fmt.Errorf("domain %q has no column %q", sch.Domain, col)
		}
		if raw == nil {
			values[col] = sqldb.Null
			continue
		}
		switch v := raw.(type) {
		case float64:
			if attr.Type == schema.TypeIII {
				values[col] = sqldb.Number(v)
				continue
			}
			values[col] = sqldb.String(strconv.FormatFloat(v, 'f', -1, 64))
		case string:
			if attr.Type == schema.TypeIII {
				n, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					return nil, fmt.Errorf("column %q is quantitative; %q is not a number", col, v)
				}
				// ParseFloat accepts "NaN" and "Inf"; neither is a price,
				// year or mileage, and either would win a superlative.
				if math.IsNaN(n) || math.IsInf(n, 0) {
					return nil, fmt.Errorf("column %q is quantitative; %q is not a finite number", col, v)
				}
				values[col] = sqldb.Number(n)
				continue
			}
			values[col] = sqldb.String(v)
		default:
			return nil, fmt.Errorf("column %q: unsupported JSON value %v", col, raw)
		}
	}
	return values, nil
}

// page is the template payload.
type page struct {
	Domains  []string
	Question string
	Domain   string
	Result   *resultView
	Error    string
}

type resultView struct {
	Domain         string
	Interpretation string
	SQL            string
	Plan           string // EXPLAIN output when &explain=1
	ExactCount     int
	PartialCount   int
	ElapsedMS      float64
	Columns        []string
	Rows           []answerRow
}

type answerRow struct {
	Kind    string // "exact" or "partial"
	RankSim string
	Measure string
	Cells   []string
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	s.render(w, page{Domains: s.sys.Domains()})
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	domain := r.URL.Query().Get("domain")
	p := page{Domains: s.sys.Domains(), Question: q, Domain: domain}
	if q == "" {
		s.render(w, p)
		return
	}
	res, err := s.ask(domain, q)
	if err != nil {
		p.Error = err.Error()
		s.render(w, p)
		return
	}
	p.Result = s.view(res)
	if r.URL.Query().Get("explain") != "" && res.SQL != "" {
		if plan, err := s.sys.Explain(res); err == nil {
			p.Result.Plan = plan
		}
	}
	s.render(w, p)
}

// APIAnswer and APIResult are the JSON shape of one answered question
// served by GET /api/ask, so answers diff byte-identically across
// primaries and replicas. The server does not encode through them:
// appendAPIResult (encode.go) writes the same bytes straight from a
// core.Result, and the shard front tier splices partitions' record
// bytes through EncodeMerged. They remain the shape clients decode
// the body into, and, with BuildAPIResult and APIResultFromScatter,
// the reference encoding the byte-identity tests hold the encoder to.
type APIAnswer struct {
	Exact          bool              `json:"exact"`
	RankSim        float64           `json:"rank_sim"`
	SimilarityUsed string            `json:"similarity_used,omitempty"`
	Record         map[string]string `json:"record"`
}

type APIResult struct {
	Domain         string      `json:"domain"`
	Interpretation string      `json:"interpretation"`
	SQL            string      `json:"sql"`
	ExactCount     int         `json:"exact_count"`
	Answers        []APIAnswer `json:"answers"`
}

// BuildAPIResult shapes a core Result for the JSON API.
func BuildAPIResult(res *core.Result) APIResult {
	out := APIResult{
		Domain:         res.Domain,
		Interpretation: res.Interpretation.String(),
		SQL:            res.SQL,
		ExactCount:     res.ExactCount,
		// Initialized so a no-match query encodes "answers": [] —
		// clients iterating the field shouldn't have to null-check.
		Answers: []APIAnswer{},
	}
	for _, a := range res.Answers {
		rec := make(map[string]string, a.Record.Len())
		for k, v := range a.Record.All() {
			rec[k] = v.String()
		}
		out.Answers = append(out.Answers, APIAnswer{
			Exact:          a.Exact,
			RankSim:        a.RankSim,
			SimilarityUsed: a.SimilarityUsed,
			Record:         rec,
		})
	}
	return out
}

// APIResultFromScatter shapes a merged scatter part (MergeScatter over
// every partition's wire part decoded to string records) exactly as
// BuildAPIResult shapes a monolith Result: same struct, same field
// order, same omissions. Encoded, it is the reference body
// EncodeMerged must reproduce byte for byte.
func APIResultFromScatter(m *core.ScatterPart[map[string]string]) APIResult {
	out := APIResult{
		Domain:         m.Domain,
		Interpretation: m.Interpretation,
		SQL:            m.SQL,
		ExactCount:     m.ExactCount,
		Answers:        []APIAnswer{},
	}
	for _, a := range m.Answers {
		out.Answers = append(out.Answers, APIAnswer{
			Exact:          a.Exact,
			RankSim:        a.RankSim,
			SimilarityUsed: a.SimilarityUsed,
			Record:         a.Record,
		})
	}
	return out
}

func (s *Server) handleAPI(w http.ResponseWriter, r *http.Request) {
	if sl, isScatter, ok := scatterSlice(w, r); isScatter {
		if ok {
			s.handleScatterAsk(w, r, sl)
		}
		return
	}
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		// jsonError, not http.Error: the latter would label the JSON
		// body text/plain.
		jsonError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	res, err := s.ask(r.URL.Query().Get("domain"), q)
	if err != nil {
		// A question addressed to a domain this shard does not host is
		// a misdirected request (421), same as the ingest path — a
		// front tier with a stale shard map can tell it from a plain
		// bad request. Everything else is the request's problem.
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrNotHosted) {
			status = http.StatusMisdirectedRequest
		}
		jsonError(w, status, "%v", err)
		return
	}
	buf := bodyBufs.Get().(*[]byte)
	b, err := appendAPIResult(*buf, res, s.recordKeys[res.Domain])
	writeBody(w, buf, b, err)
}

func (s *Server) ask(domain, q string) (*core.Result, error) {
	if domain != "" {
		return s.sys.AskInDomain(domain, q)
	}
	return s.sys.Ask(q)
}

// view shapes a Result for the HTML table, ordering columns
// Type I → Type II → Type III like the schema.
func (s *Server) view(res *core.Result) *resultView {
	v := &resultView{
		Domain:         res.Domain,
		Interpretation: res.Interpretation.String(),
		SQL:            res.SQL,
		ExactCount:     res.ExactCount,
		PartialCount:   len(res.Answers) - res.ExactCount,
		ElapsedMS:      float64(res.Elapsed.Microseconds()) / 1000,
	}
	if tbl, ok := s.sys.DB().TableForDomain(res.Domain); ok {
		for _, a := range tbl.Schema().Attrs {
			v.Columns = append(v.Columns, a.Name)
		}
	}
	for _, a := range res.Answers {
		row := answerRow{Kind: "partial", Measure: a.SimilarityUsed}
		if a.Exact {
			row.Kind = "exact"
		} else {
			row.RankSim = fmt.Sprintf("%.2f", a.RankSim)
		}
		for _, col := range v.Columns {
			row.Cells = append(row.Cells, a.Record.Value(col).String())
		}
		v.Rows = append(v.Rows, row)
	}
	return v
}

// render buffers the template so a mid-execution failure cannot leak a
// half-written page with a 200 status already on the wire.
func (s *Server) render(w http.ResponseWriter, p page) {
	var buf bytes.Buffer
	if err := s.tpl.Execute(&buf, p); err != nil {
		jsonError(w, http.StatusInternalServerError, "rendering page: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// pageTemplate is the single-page UI.
const pageTemplate = `<!DOCTYPE html>
<html>
<head>
<title>CQAds</title>
<style>
body { font-family: sans-serif; margin: 2em; color: #222; }
input[type=text] { width: 32em; padding: .4em; }
table { border-collapse: collapse; margin-top: 1em; }
th, td { border: 1px solid #bbb; padding: .3em .6em; text-align: left; }
tr.exact { background: #e8f5e9; }
tr.partial { background: #fff8e1; }
.meta { color: #666; font-size: .9em; margin: .4em 0; }
code { background: #f3f3f3; padding: .1em .3em; }
</style>
</head>
<body>
<h1>CQAds — ads question answering</h1>
<form action="/ask" method="get">
  <input type="text" name="q" value="{{.Question}}"
         placeholder="Find Honda Accord blue less than 15,000 dollars">
  <select name="domain">
    <option value="">auto-classify</option>
    {{range .Domains}}<option value="{{.}}" {{if eq . $.Domain}}selected{{end}}>{{.}}</option>{{end}}
  </select>
  <button type="submit">Ask</button>
</form>
{{with .Error}}<p style="color:#b00">{{.}}</p>{{end}}
{{with .Result}}
<div class="meta">domain <b>{{.Domain}}</b> ·
  {{.ExactCount}} exact + {{.PartialCount}} partial ·
  {{printf "%.2f" .ElapsedMS}} ms</div>
<div class="meta">interpretation: <code>{{.Interpretation}}</code></div>
<div class="meta">SQL: <code>{{.SQL}}</code></div>
{{with .Plan}}<pre class="meta">{{.}}</pre>{{end}}
<table>
<tr><th>#</th><th>match</th><th>Rank_Sim</th><th>measure</th>
{{range .Columns}}<th>{{.}}</th>{{end}}</tr>
{{range $i, $r := .Rows}}
<tr class="{{$r.Kind}}"><td>{{$i}}</td><td>{{$r.Kind}}</td>
<td>{{$r.RankSim}}</td><td>{{$r.Measure}}</td>
{{range $r.Cells}}<td>{{.}}</td>{{end}}</tr>
{{end}}
</table>
{{end}}
</body>
</html>`
