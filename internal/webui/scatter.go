package webui

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/partition"
)

// This file is the partition-facing half of the JSON API: the scatter
// endpoints a shard front tier uses to answer questions over a hash-
// partitioned domain, and the retirement endpoint the rebalance
// coordinator drives. A partitioned node cannot answer a question by
// itself — exact matches, the superlative extreme and the ranked
// partial top-K are all global — so the front tier sends the same
// question to every partition with the X-Cqads-Scatter header, each
// node answers over its rows with core.AskInDomainScatter, and the
// front folds the parts through core.MergeScatter into the bytes a
// monolith would have served. Parts are encoded by appendScatterPart
// (encode.go), whose records are the very bytes appendAPIResult writes
// for the same rows, so the front tier splices each answer's record
// into the final body (EncodeMerged) without decoding it.

// ScatterHeader carries the hash slice a scatter request addresses
// ("h1/4", partition.Slice.String form). Its presence switches
// GET /api/ask from a finished answer to a ScatterPart wire part. The addressed slice may be narrower than the
// slice the node still physically holds (mid-rebalance, before the
// source retired); answers are filtered to the addressed slice, so
// every row is answered by exactly one node regardless of retirement
// timing.
const ScatterHeader = "X-Cqads-Scatter"

// AdIDHeader pins the ad key of a POST /api/ads ingest. The shard
// front tier uses it to re-submit an ad to the partition owning the
// key; a node that does not own the pinned key's hash answers 421.
const AdIDHeader = "X-Cqads-Ad-Id"

// scatterErrorStatus maps a scatter failure: a domain this node does
// not host is a misdirected request, anything else is the request's.
func scatterErrorStatus(err error) int {
	if errors.Is(err, core.ErrNotHosted) {
		return http.StatusMisdirectedRequest
	}
	return http.StatusBadRequest
}

// handleScatterAsk answers GET /api/ask carrying X-Cqads-Scatter: the
// response body is this node's ScatterPart for the question, not a
// finished answer. The domain parameter is required — scatter requests
// are already classified by the front tier.
func (s *Server) handleScatterAsk(w http.ResponseWriter, r *http.Request, sl partition.Slice) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		jsonError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	domain := r.URL.Query().Get("domain")
	if domain == "" {
		jsonError(w, http.StatusBadRequest, "scatter requests require an explicit domain")
		return
	}
	part, err := s.sys.AskInDomainScatter(domain, q, sl)
	if err != nil {
		jsonError(w, scatterErrorStatus(err), "%v", err)
		return
	}
	buf := bodyBufs.Get().(*[]byte)
	b, err := appendScatterPart(*buf, part, s.recordKeys[part.Domain])
	writeBody(w, buf, b, err)
}

// scatterSlice extracts and validates the X-Cqads-Scatter header;
// ok reports whether the request is a scatter request at all.
func scatterSlice(w http.ResponseWriter, r *http.Request) (sl partition.Slice, isScatter, ok bool) {
	h := r.Header.Get(ScatterHeader)
	if h == "" {
		return partition.Slice{}, false, false
	}
	sl, err := partition.Parse(h)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "invalid %s header %q: %v", ScatterHeader, h, err)
		return partition.Slice{}, true, false
	}
	return sl, true, true
}

// handlePartitionRetire narrows this node's hosted hash slice:
//
//	POST /api/partition/retire
//	{"slice": "h1/4"}
//
// The rebalance coordinator's final step: after the router has cut the
// moved slice over to its new owner, the source drops the moved rows
// and refuses their keys from then on. Responds 200 with the slice now
// hosted. An unpartitioned node, a non-subset slice, or a read-only
// replica answer 409 — retirement is a state conflict, not a malformed
// request.
func (s *Server) handlePartitionRetire(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Slice string `json:"slice"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	sl, err := partition.Parse(req.Slice)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "invalid slice %q: %v", req.Slice, err)
		return
	}
	if err := s.sys.RetirePartition(sl); err != nil {
		jsonError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]string{"slice": s.sys.PartitionSlice().String()})
}
