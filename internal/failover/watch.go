package failover

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// LeaderView is the JSON body of GET /api/repl/leader: one node's
// current opinion of who leads its replica set. Role is an agent role
// (leader/follower/candidate) on nodes running failover, or a storage
// role (primary/promoted/follower/standalone) on nodes without an
// agent — either way, a node reporting a leading role IS the leader.
type LeaderView struct {
	LeaderURL string `json:"leader_url"`
	Epoch     uint64 `json:"epoch"`
	Role      string `json:"role"`
}

// leads reports whether a node answering with this view is itself the
// write target.
func (v LeaderView) leads() bool {
	switch v.Role {
	case RoleLeader, "primary", "promoted", "standalone":
		return true
	}
	return false
}

// DefaultProbeTimeout bounds one leader probe; a watcher asking a dead
// node must move to the next long before a router's caller notices.
const DefaultProbeTimeout = 2 * time.Second

// Watch resolves and caches the current leader of one replica set by
// asking its members GET /api/repl/leader. Routers consult it lazily:
// resolve once, send traffic to the cached leader, and on failure
// Invalidate and re-resolve — election results propagate exactly when
// they are needed, with no background polling.
type Watch struct {
	peers   []string
	client  *http.Client
	timeout time.Duration

	mu     sync.Mutex
	cached string
}

// NewWatch builds a watcher over the replica set's base URLs. A nil
// client uses a dedicated one with DefaultProbeTimeout per probe.
func NewWatch(peers []string, client *http.Client) *Watch {
	if client == nil {
		client = &http.Client{}
	}
	return &Watch{peers: peers, client: client, timeout: DefaultProbeTimeout}
}

// Resolve returns the set's current leader URL, probing members only
// when no cached answer exists. The members' own reports win over
// hearsay: a node claiming a leading role is preferred (highest epoch
// first) over another node's leader_url hint, which may be one
// election stale.
func (w *Watch) Resolve(ctx context.Context) (string, error) {
	w.mu.Lock()
	if w.cached != "" {
		url := w.cached
		w.mu.Unlock()
		return url, nil
	}
	w.mu.Unlock()

	var (
		leader, hint           string
		leaderEpoch, hintEpoch uint64
		found                  bool
	)
	for _, peer := range w.peers {
		v, err := w.probe(ctx, peer)
		if err != nil {
			continue
		}
		switch {
		case v.leads() && (!found || v.Epoch > leaderEpoch):
			leader, leaderEpoch, found = peer, v.Epoch, true
		case v.LeaderURL != "" && v.Epoch >= hintEpoch:
			hint, hintEpoch = v.LeaderURL, v.Epoch
		}
	}
	if !found && hint != "" && hintEpoch >= leaderEpoch {
		leader, found = hint, true
	}
	if !found {
		return "", fmt.Errorf("failover: no reachable leader among %v", w.peers)
	}
	w.mu.Lock()
	w.cached = leader
	w.mu.Unlock()
	return leader, nil
}

// Invalidate drops the cached leader if it still names url, so the
// next Resolve re-probes. Scoping the drop to the failed URL keeps a
// concurrent caller's fresher answer intact.
func (w *Watch) Invalidate(url string) {
	w.mu.Lock()
	if w.cached == url {
		w.cached = ""
	}
	w.mu.Unlock()
}

// probe asks one member for its leader view.
func (w *Watch) probe(ctx context.Context, peer string) (LeaderView, error) {
	pctx, cancel := context.WithTimeout(ctx, w.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, peer+"/api/repl/leader", nil)
	if err != nil {
		return LeaderView{}, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return LeaderView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return LeaderView{}, fmt.Errorf("failover: %s answered %s", peer, resp.Status)
	}
	var v LeaderView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return LeaderView{}, err
	}
	return v, nil
}
