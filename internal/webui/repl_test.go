package webui

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/cqads"
	"repro/internal/adsgen"
	"repro/internal/persist"
	"repro/internal/schema"
)

// primaryServer builds a durable primary over the bundled environment.
func primaryServer(t *testing.T) (*cqads.System, *Server) {
	t.Helper()
	sys, err := cqads.Open(cqads.Options{Seed: 11, AdsPerDomain: 60, DataDir: t.TempDir(), CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, NewServer(sys)
}

func do(t *testing.T, srv *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// TestHealthzStates: serving on a healthy node, write-failed once the
// durability latch is set; the body carries role and cursors.
func TestHealthzStates(t *testing.T) {
	_, srv := primaryServer(t)
	rec := do(t, srv, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var body struct {
		State      string `json:"state"`
		Role       string `json:"role"`
		AppliedSeq uint64 `json:"applied_seq"`
		LagOps     uint64 `json:"lag_ops"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.State != "serving" || body.Role != "primary" {
		t.Fatalf("healthz body = %+v", body)
	}

	// In-memory server: standalone but serving.
	rec = do(t, server(t), http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("standalone healthz = %d", rec.Code)
	}
}

// TestReplProtocolEndToEnd drives the full wire protocol through the
// handlers: snapshot transfer, framed WAL fetch, heartbeat, and the
// 410 compaction signal.
func TestReplProtocolEndToEnd(t *testing.T) {
	sys, srv := primaryServer(t)

	// Snapshot transfer decodes and carries the checkpoint seq.
	rec := do(t, srv, http.MethodGet, "/api/repl/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", rec.Code, rec.Body.String())
	}
	snap, err := persist.DecodeSnapshot(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	baseSeq := snap.Seq

	// Ingest, then fetch the stream from the snapshot's cursor.
	gen := adsgen.NewGenerator(77)
	for _, ad := range gen.Generate(schema.Cars(), 4) {
		if _, err := sys.InsertAd("cars", ad); err != nil {
			t.Fatal(err)
		}
	}
	rec = do(t, srv, http.MethodGet, fmt.Sprintf("/api/repl/wal?from=%d", baseSeq), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("wal = %d: %s", rec.Code, rec.Body.String())
	}
	seqHdr, err := strconv.ParseUint(rec.Header().Get("X-Cqads-Seq"), 10, 64)
	if err != nil || seqHdr != baseSeq+4 {
		t.Fatalf("X-Cqads-Seq = %q, want %d", rec.Header().Get("X-Cqads-Seq"), baseSeq+4)
	}
	dec := persist.NewOpReader(bytes.NewReader(rec.Body.Bytes()))
	var got []persist.Op
	for {
		op, err := dec.Next()
		if err != nil {
			break
		}
		got = append(got, op)
	}
	if len(got) != 4 || got[0].Seq != baseSeq+1 || got[3].Seq != baseSeq+4 {
		t.Fatalf("decoded %d ops, first/last %d/%d; want 4 ops %d..%d",
			len(got), got[0].Seq, got[len(got)-1].Seq, baseSeq+1, baseSeq+4)
	}

	// Caught-up cursor with no wait: an empty 200 heartbeat.
	rec = do(t, srv, http.MethodGet, fmt.Sprintf("/api/repl/wal?from=%d", baseSeq+4), nil)
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Fatalf("heartbeat = %d with %d bytes", rec.Code, rec.Body.Len())
	}

	// Compaction discards the shipped range: a stale cursor gets 410.
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rec = do(t, srv, http.MethodGet, fmt.Sprintf("/api/repl/wal?from=%d", baseSeq), nil)
	if rec.Code != http.StatusGone {
		t.Fatalf("stale cursor = %d, want 410", rec.Code)
	}

	// Malformed parameters are 400s.
	if rec := do(t, srv, http.MethodGet, "/api/repl/wal?from=nope", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad from = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodGet, "/api/repl/wal?from=0&wait=nope", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad wait = %d", rec.Code)
	}
}

// TestReplEndpointsRequirePrimary: an in-memory server answers 409 to
// the shipping endpoints, while promote — idempotent since automatic
// failover arrived, so a controller and an operator can race — answers
// 200 with the node's current (already writable) role.
func TestReplEndpointsRequirePrimary(t *testing.T) {
	srv := server(t)
	if rec := do(t, srv, http.MethodGet, "/api/repl/snapshot", nil); rec.Code != http.StatusConflict {
		t.Fatalf("snapshot on standalone = %d", rec.Code)
	}
	if rec := do(t, srv, http.MethodGet, "/api/repl/wal?from=0", nil); rec.Code != http.StatusConflict {
		t.Fatalf("wal on standalone = %d", rec.Code)
	}
	rec := do(t, srv, http.MethodPost, "/api/repl/promote", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("promote on standalone = %d, want idempotent 200", rec.Code)
	}
	var resp struct {
		Role string `json:"role"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Role != "standalone" {
		t.Fatalf("promote on standalone reported role %q", resp.Role)
	}
}

// TestFollowerWebUIAndPromote: a follower served by webui reports its
// role, rejects ingestion over HTTP, and flips writable via
// POST /api/repl/promote.
func TestFollowerWebUIAndPromote(t *testing.T) {
	_, psrv := primaryServer(t)
	rec := do(t, psrv, http.MethodGet, "/api/repl/snapshot", nil)
	if rec.Code != http.StatusOK {
		t.Fatal(rec.Code)
	}
	fsys, err := cqads.OpenFollower(cqads.Options{Seed: 11, AdsPerDomain: 60}, rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fsrv := NewServer(fsys)

	rec = do(t, fsrv, http.MethodGet, "/healthz", nil)
	var hz struct {
		State string `json:"state"`
		Role  string `json:"role"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.State != "serving" || hz.Role != "follower" {
		t.Fatalf("follower healthz = %+v", hz)
	}

	// HTTP ingestion is refused while read-only — 403, not 400: the
	// request is fine, the node is the wrong one to write to.
	ad := `{"domain":"cars","record":{"make":"honda"}}`
	if rec := do(t, fsrv, http.MethodPost, "/api/ads", []byte(ad)); rec.Code != http.StatusForbidden {
		t.Fatalf("POST /api/ads on follower = %d, want 403", rec.Code)
	}
	if rec := do(t, fsrv, http.MethodDelete, "/api/ads/1?domain=cars", nil); rec.Code != http.StatusForbidden {
		t.Fatalf("DELETE /api/ads on follower = %d, want 403", rec.Code)
	}

	// Promote over HTTP, then ingestion works.
	rec = do(t, fsrv, http.MethodPost, "/api/repl/promote", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("promote = %d: %s", rec.Code, rec.Body.String())
	}
	var pr struct {
		Role string `json:"role"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Role != "promoted" {
		t.Fatalf("promote role = %q", pr.Role)
	}
	if rec := do(t, fsrv, http.MethodPost, "/api/ads", []byte(ad)); rec.Code != http.StatusCreated {
		t.Fatalf("POST /api/ads after promote = %d: %s", rec.Code, rec.Body.String())
	}
}
