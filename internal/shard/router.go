package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/failover"
	"repro/internal/partition"
	"repro/internal/webui"
)

// DefaultTimeout bounds one upstream shard call when Config.Client is
// nil.
const DefaultTimeout = 15 * time.Second

// DefaultProbeTimeout bounds one /healthz or /api/status probe. Kept
// far below the data-path timeout: a single wedged shard must not
// stall the whole cluster health view past a load balancer's own
// probe deadline.
const DefaultProbeTimeout = 2 * time.Second

// Config wires a Router.
type Config struct {
	// Map is a parsed shard map (ParseMap produces this): every hosted
	// domain to its partitions, each a hash slice with its replica-set
	// members. A one-member group is routed to statically; a
	// multi-member group makes the router resolve and follow the set's
	// elected leader through GET /api/repl/leader — lazily, with
	// invalidate-and-retry on failure, so elections propagate exactly
	// when traffic notices them.
	Map Map
	// Classifier routes questions without an explicit domain; nil
	// makes such requests fail with a RouteError instead of routing.
	Classifier Classifier
	// Client issues every upstream request; nil uses a client with
	// Timeout (or DefaultTimeout).
	Client *http.Client
	// Timeout configures the default client; ignored when Client is
	// set. 0 means DefaultTimeout.
	Timeout time.Duration
	// ProbeTimeout bounds each ClusterStatus/ClusterHealth probe; 0
	// means DefaultProbeTimeout.
	ProbeTimeout time.Duration
}

// partState is one partition of a domain as the router sees it: the
// hash slice it owns and the replica set serving it. partStates are
// immutable after construction — rebalancing replaces them wholesale
// under the domain's lock — so the read path copies a slice header and
// never takes the domain lock while a request is in flight.
type partState struct {
	slice   partition.Slice
	members []string
	key     string          // "|"-joined member list, the Owner form
	watch   *failover.Watch // leader watcher (multi-member sets only)
	lat     *groupLatency   // read-latency profile, shared per member set
}

// inflightWrite is one admitted, not-yet-completed forwarded write,
// tracked so a fence can drain the writes that overlap a moving slice.
type inflightWrite struct {
	key    uint64
	hasKey bool // false: the write's key is unknown (unpinned insert)
}

// domainState is a domain's live routing state. The partition list is
// replaced atomically under mu on rebalance cutover; writes pass
// through a fence gate so a rebalance can stop traffic to just the
// moving slice, briefly, without erroring it.
type domainState struct {
	mu sync.Mutex
	// parts is sorted by (slice.Count, slice.Index) and always tiles
	// the whole hash space exactly once.
	parts []*partState
	rr    uint64 // round-robin cursor for unpinned ingest fan-out
	// Fence state: while fenced, writes overlapping fence (and all
	// unpinned inserts, whose keys are unknown) queue on fenceCh
	// instead of erroring. fenceCh is closed by Unfence.
	fenced  bool
	fence   partition.Slice
	fenceCh chan struct{}
	// inflight tracks admitted writes; waitDone (when non-nil) is
	// closed on the next write completion so a drainer can re-check.
	inflight map[uint64]inflightWrite
	nextTok  uint64
	waitDone chan struct{}
}

// snapshot returns the current partition list; the returned slice is
// never mutated.
func (ds *domainState) snapshot() []*partState {
	ds.mu.Lock()
	parts := ds.parts
	ds.mu.Unlock()
	return parts
}

// admitWrite gates one forwarded write on the domain's fence: writes
// overlapping the fenced slice — and unpinned inserts, whose target
// key is not known until a shard assigns it — wait for Unfence rather
// than failing. The returned token must be released when the upstream
// call settles.
func (ds *domainState) admitWrite(ctx context.Context, key uint64, hasKey bool) (uint64, error) {
	for {
		ds.mu.Lock()
		if ds.fenced && (!hasKey || ds.fence.ContainsKey(key)) {
			ch := ds.fenceCh
			ds.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		tok := ds.nextTok
		ds.nextTok++
		if ds.inflight == nil {
			ds.inflight = make(map[uint64]inflightWrite)
		}
		ds.inflight[tok] = inflightWrite{key: key, hasKey: hasKey}
		ds.mu.Unlock()
		return tok, nil
	}
}

// release marks an admitted write settled and wakes any drainer.
func (ds *domainState) release(tok uint64) {
	ds.mu.Lock()
	delete(ds.inflight, tok)
	if ds.waitDone != nil {
		close(ds.waitDone)
		ds.waitDone = nil
	}
	ds.mu.Unlock()
}

// drain blocks until no admitted write overlapping sl is in flight.
// Called after the fence is up, so the overlapping population only
// shrinks.
func (ds *domainState) drain(ctx context.Context, sl partition.Slice) error {
	for {
		ds.mu.Lock()
		busy := false
		for _, w := range ds.inflight {
			if !w.hasKey || sl.ContainsKey(w.key) {
				busy = true
				break
			}
		}
		if !busy {
			ds.mu.Unlock()
			return nil
		}
		if ds.waitDone == nil {
			ds.waitDone = make(chan struct{})
		}
		ch := ds.waitDone
		ds.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Router owns the routing table of a shard cluster: classify once,
// forward to the owner, scatter partitioned domains and merge, and
// scatter-gather cluster probes. It is safe for concurrent
// use and spawns no background goroutines — every scatter joins before
// its method returns.
type Router struct {
	states  map[string]*domainState
	domains []string // hosted domains, sorted
	cls     Classifier
	client  *http.Client

	// reg shares leader watchers and latency profiles across every
	// partState with the same member set — domains owned by the same
	// replica set re-resolve an election once, and a set's hedge delay
	// is learned from all its traffic. The registry only grows
	// (latency counts are monotonic, so retired sets keep reporting).
	regMu    sync.Mutex
	regWatch map[string]*failover.Watch
	regLat   map[string]*groupLatency

	probeTimeout time.Duration
}

// New builds a Router over a parsed shard map.
func New(cfg Config) (*Router, error) {
	m := cfg.Map
	if len(m) == 0 {
		return nil, fmt.Errorf("shard: Config.Map is empty")
	}
	client := cfg.Client
	if client == nil {
		timeout := cfg.Timeout
		if timeout <= 0 {
			timeout = DefaultTimeout
		}
		client = &http.Client{Timeout: timeout}
	}
	probeTimeout := cfg.ProbeTimeout
	if probeTimeout <= 0 {
		probeTimeout = DefaultProbeTimeout
	}
	r := &Router{
		states:       make(map[string]*domainState, len(m)),
		cls:          cfg.Classifier,
		client:       client,
		regWatch:     make(map[string]*failover.Watch),
		regLat:       make(map[string]*groupLatency),
		probeTimeout: probeTimeout,
	}
	for domain, groups := range m {
		parts, err := r.buildParts(domain, groups)
		if err != nil {
			return nil, err
		}
		r.states[domain] = &domainState{parts: parts}
		r.domains = append(r.domains, domain)
	}
	sort.Strings(r.domains)
	return r, nil
}

// buildParts turns one domain's groups into validated partStates: every
// member set non-empty, every slice valid, and the slices tiling the
// whole hash space exactly once. A single group with the zero Slice is
// normalized to the whole space (the unpartitioned form).
func (r *Router) buildParts(domain string, groups []Group) ([]*partState, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("shard: domain %q has no groups", domain)
	}
	parts := make([]*partState, 0, len(groups))
	for _, g := range groups {
		sl := g.Slice
		if sl == (partition.Slice{}) && len(groups) == 1 {
			sl = partition.Whole()
		}
		if err := sl.Validate(); err != nil {
			return nil, fmt.Errorf("shard: domain %q: %w", domain, err)
		}
		if len(g.Members) == 0 {
			return nil, fmt.Errorf("shard: domain %q slice %s has an empty replica set", domain, sl)
		}
		parts = append(parts, r.newPart(sl, g.Members))
	}
	if err := validateCover(domain, parts); err != nil {
		return nil, err
	}
	return parts, nil
}

// validateCover checks that parts tile the whole hash space exactly
// once (pairwise disjoint, fractions summing to one) and sorts them
// canonically.
func validateCover(domain string, parts []*partState) error {
	sort.Slice(parts, func(a, b int) bool {
		if parts[a].slice.Count != parts[b].slice.Count {
			return parts[a].slice.Count < parts[b].slice.Count
		}
		return parts[a].slice.Index < parts[b].slice.Index
	})
	var total uint64
	for i, p := range parts {
		total += uint64(1<<32) / uint64(p.slice.Count)
		for _, q := range parts[:i] {
			if p.slice.Overlaps(q.slice) {
				return fmt.Errorf("shard: domain %q slices %s and %s overlap", domain, q.slice, p.slice)
			}
		}
	}
	if total != 1<<32 {
		return fmt.Errorf("shard: domain %q slices do not cover the whole hash space", domain)
	}
	return nil
}

// newPart interns the member set's shared watcher and latency profile
// and wraps them with the slice.
func (r *Router) newPart(sl partition.Slice, members []string) *partState {
	key := strings.Join(members, "|")
	r.regMu.Lock()
	defer r.regMu.Unlock()
	g, ok := r.regLat[key]
	if !ok {
		g = &groupLatency{key: key}
		r.regLat[key] = g
	}
	var w *failover.Watch
	if len(members) > 1 {
		w, ok = r.regWatch[key]
		if !ok {
			w = failover.NewWatch(members, r.client)
			r.regWatch[key] = w
		}
	}
	return &partState{slice: sl, members: members, key: key, watch: w, lat: g}
}

// Close releases pooled upstream connections.
func (r *Router) Close() { r.client.CloseIdleConnections() }

// partsOf snapshots a domain's current partitions.
func (r *Router) partsOf(domain string) ([]*partState, bool) {
	ds, ok := r.states[domain]
	if !ok {
		return nil, false
	}
	return ds.snapshot(), true
}

// partFor picks the partition owning an ad key.
func partFor(parts []*partState, key uint64) *partState {
	for _, p := range parts {
		if p.slice.ContainsKey(key) {
			return p
		}
	}
	return nil
}

// Owner reports who hosts a domain: the "|"-joined member list for an
// unpartitioned domain (the same form ParseMap accepts), or the
// slice-annotated list "h0/2:a|b,h1/2:c" for a partitioned one.
func (r *Router) Owner(domain string) (string, bool) {
	parts, ok := r.partsOf(domain)
	if !ok {
		return "", false
	}
	if len(parts) == 1 && parts[0].slice.IsWhole() {
		return parts[0].key, true
	}
	entries := make([]string, len(parts))
	for i, p := range parts {
		entries[i] = p.slice.String() + ":" + p.key
	}
	return strings.Join(entries, ","), true
}

// Partitions reports a domain's current partition layout.
func (r *Router) Partitions(domain string) ([]Group, bool) {
	parts, ok := r.partsOf(domain)
	if !ok {
		return nil, false
	}
	out := make([]Group, len(parts))
	for i, p := range parts {
		out[i] = Group{Slice: p.slice, Members: append([]string(nil), p.members...)}
	}
	return out, true
}

// PartitionLeader resolves the base URL currently serving writes for
// one partition of a domain — the rebalance coordinator uses it to
// address the source of a move.
func (r *Router) PartitionLeader(ctx context.Context, domain string, sl partition.Slice) (string, error) {
	parts, ok := r.partsOf(domain)
	if !ok {
		return "", ErrNoShard
	}
	for _, p := range parts {
		if p.slice == sl {
			return r.leaderOf(ctx, p)
		}
	}
	return "", fmt.Errorf("shard: domain %q has no partition %s", domain, sl)
}

// FenceWrites raises the domain's write fence over sl and drains the
// overlapping writes already in flight: when it returns nil, no write
// that could land in sl is outstanding and none will be admitted until
// Unfence. Queries are never fenced. One fence at a time per domain.
func (r *Router) FenceWrites(ctx context.Context, domain string, sl partition.Slice) error {
	ds, ok := r.states[domain]
	if !ok {
		return ErrNoShard
	}
	ds.mu.Lock()
	if ds.fenced {
		ds.mu.Unlock()
		return fmt.Errorf("shard: domain %q is already fenced", domain)
	}
	ds.fenced = true
	ds.fence = sl
	ds.fenceCh = make(chan struct{})
	ds.mu.Unlock()
	return ds.drain(ctx, sl)
}

// Unfence drops the domain's write fence, releasing queued writes.
func (r *Router) Unfence(domain string) {
	ds, ok := r.states[domain]
	if !ok {
		return
	}
	ds.mu.Lock()
	if ds.fenced {
		ds.fenced = false
		close(ds.fenceCh)
		ds.fenceCh = nil
	}
	ds.mu.Unlock()
}

// SwapPartition atomically replaces the partition owning old with repl
// — the rebalance cutover. The replacement slices must tile exactly
// old's key space, so the domain-wide invariant (whole space, exactly
// once) is preserved by construction. In-flight requests finish
// against the partition list they snapshotted; the fence (held by the
// caller across the swap) is what keeps moving-slice writes out of
// that window.
func (r *Router) SwapPartition(domain string, old partition.Slice, repl []Group) error {
	ds, ok := r.states[domain]
	if !ok {
		return ErrNoShard
	}
	if len(repl) == 0 {
		return fmt.Errorf("shard: replacing %s of %q with nothing", old, domain)
	}
	newParts := make([]*partState, 0, len(repl))
	var total uint64
	for i, g := range repl {
		if err := g.Slice.Validate(); err != nil {
			return fmt.Errorf("shard: domain %q: %w", domain, err)
		}
		if !g.Slice.SubsetOf(old) {
			return fmt.Errorf("shard: replacement slice %s is not inside %s", g.Slice, old)
		}
		if len(g.Members) == 0 {
			return fmt.Errorf("shard: replacement slice %s has an empty replica set", g.Slice)
		}
		for _, q := range repl[:i] {
			if g.Slice.Overlaps(q.Slice) {
				return fmt.Errorf("shard: replacement slices %s and %s overlap", q.Slice, g.Slice)
			}
		}
		total += uint64(1<<32) / uint64(g.Slice.Count)
		newParts = append(newParts, r.newPart(g.Slice, g.Members))
	}
	if total != uint64(1<<32)/uint64(old.Count) {
		return fmt.Errorf("shard: replacement slices do not cover %s exactly", old)
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	idx := -1
	for i, p := range ds.parts {
		if p.slice == old {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("shard: domain %q has no partition %s", domain, old)
	}
	parts := make([]*partState, 0, len(ds.parts)-1+len(newParts))
	parts = append(parts, ds.parts[:idx]...)
	parts = append(parts, ds.parts[idx+1:]...)
	parts = append(parts, newParts...)
	sort.Slice(parts, func(a, b int) bool {
		if parts[a].slice.Count != parts[b].slice.Count {
			return parts[a].slice.Count < parts[b].slice.Count
		}
		return parts[a].slice.Index < parts[b].slice.Index
	})
	ds.parts = parts
	return nil
}

// leaderOf resolves the base URL traffic for a partition should hit
// right now: the sole member of a static set, or the replica set's
// current leader (cached by the set's watcher until invalidated).
func (r *Router) leaderOf(ctx context.Context, p *partState) (string, error) {
	if p.watch == nil {
		return p.members[0], nil
	}
	return p.watch.Resolve(ctx)
}

// doRouted issues one request to a partition, following leadership:
// resolve the leader, send, and on a failure that smells like a stale
// leader — the node is unreachable, or refuses the write read-only
// (403) — invalidate the cached leader, re-resolve, and retry once.
// Static single-member sets never probe and never retry, preserving
// the pre-replica-set behavior exactly. The base actually answering is
// returned for error attribution.
func (r *Router) doRouted(ctx context.Context, method string, p *partState, pathAndQuery string, body []byte, contentType string, hdr map[string]string) (base string, status int, respBody []byte, err error) {
	base, err = r.leaderOf(ctx, p)
	if err != nil {
		return "", 0, nil, err
	}
	status, respBody, err = r.do(ctx, method, base, pathAndQuery, body, contentType, hdr)
	if p.watch == nil || (err == nil && status != http.StatusForbidden) {
		return base, status, respBody, err
	}
	p.watch.Invalidate(base)
	next, rerr := p.watch.Resolve(ctx)
	if rerr != nil || next == base {
		return base, status, respBody, err
	}
	base = next
	status, respBody, err = r.do(ctx, method, base, pathAndQuery, body, contentType, hdr)
	return base, status, respBody, err
}

// Route classifies a question into its owning domain.
func (r *Router) Route(question string) (string, error) {
	if r.cls == nil {
		return "", fmt.Errorf("shard: no classifier configured; pass an explicit domain")
	}
	return r.cls.ClassifyQuestion(question)
}

// Proxied is one upstream answer: the HTTP status and JSON body,
// byte-identical to what a monolith would have served — proxied
// verbatim from the owning shard, or (for a partitioned domain)
// encoded from the deterministic merge of the partitions' scatter
// parts, whose record bytes webui writes with the monolith's encoder.
type Proxied struct {
	// Domain the request was routed to ("" for a broadcast merge).
	Domain string
	// Status is the shard's HTTP status code.
	Status int
	// Body is the shard's response body.
	Body []byte
}

// Ask answers one question through the cluster: classify (when domain
// is empty), forward GET /api/ask to the owning shard — scattering to
// every partition and merging when the domain is hash-partitioned —
// and return the response. A question the classifier cannot place
// falls back to broadcast-and-merge across every hosted domain.
// Errors are always *RouteError.
func (r *Router) Ask(ctx context.Context, domain, question string) (*Proxied, error) {
	if domain == "" {
		if r.cls == nil {
			// A missing classifier is a configuration fault, not an
			// unclassifiable question: fail as documented instead of
			// silently broadcasting every query N-wide.
			_, err := r.Route(question)
			return nil, &RouteError{Err: err}
		}
		d, err := r.Route(question)
		if err != nil {
			return r.askBroadcast(ctx, question, err)
		}
		domain = d
	}
	return r.askOwned(ctx, domain, question)
}

// askOwned answers one question in one domain: proxied verbatim from
// the single owning shard, or scattered and merged across a
// partitioned domain's slices, the merged body written by
// webui.EncodeMerged with the partitions' record bytes spliced in
// unchanged. Reads hedge a slow or failing member against another
// member of its replica set either way.
func (r *Router) askOwned(ctx context.Context, domain, question string) (*Proxied, error) {
	parts, ok := r.partsOf(domain)
	if !ok {
		return nil, &RouteError{Domain: domain, Err: ErrNoShard}
	}
	q := url.Values{"domain": {domain}, "q": {question}}
	path := "/api/ask?" + q.Encode()
	if len(parts) == 1 && parts[0].slice.IsWhole() {
		base, status, body, err := r.doRead(ctx, parts[0], path, nil)
		if err != nil {
			return nil, &RouteError{Domain: domain, Shard: base, Err: err}
		}
		return &Proxied{Domain: domain, Status: status, Body: body}, nil
	}
	merged, rerr := r.scatterAsk(ctx, domain, path, parts)
	if rerr != nil {
		return nil, rerr
	}
	body, err := webui.EncodeMerged(merged)
	if err != nil {
		return nil, &RouteError{Domain: domain, Err: err}
	}
	return &Proxied{Domain: domain, Status: http.StatusOK, Body: body}, nil
}

// wirePart is the scatter body each partition serves, decoded with
// each answer's record left as the raw JSON object the partition
// encoded: the merge orders answers by their ranking fields alone, and
// webui.EncodeMerged splices the record bytes into the final body.
type wirePart = core.ScatterPart[json.RawMessage]

// scatterAsk sends one ask to every partition (each request addressed
// to the partition's slice via the scatter header) and merges the
// parts. Any partition failing fails the question — a partial merge
// would silently drop that slice's rows, which is exactly the
// wrong-answer class the harness exists to rule out.
func (r *Router) scatterAsk(ctx context.Context, domain, path string, parts []*partState) (*wirePart, *RouteError) {
	type leg struct {
		part *wirePart
		rerr *RouteError
	}
	legs := make([]leg, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p *partState) {
			defer wg.Done()
			hdr := map[string]string{webui.ScatterHeader: p.slice.String()}
			base, status, body, err := r.doRead(ctx, p, path, hdr)
			if err != nil {
				legs[i].rerr = &RouteError{Domain: domain, Shard: base, Err: err}
				return
			}
			if status != http.StatusOK {
				legs[i].rerr = &RouteError{Domain: domain, Shard: base, Status: status,
					Err: fmt.Errorf("scatter refused: %s", bytes.TrimSpace(body))}
				return
			}
			var part wirePart
			if err := json.Unmarshal(body, &part); err != nil {
				legs[i].rerr = &RouteError{Domain: domain, Shard: base, Status: status,
					Err: fmt.Errorf("decoding scatter part: %w", err)}
				return
			}
			legs[i].part = &part
		}(i, p)
	}
	wg.Wait()
	collected := make([]*wirePart, len(legs))
	for i, l := range legs {
		if l.rerr != nil {
			return nil, l.rerr
		}
		collected[i] = l.part
	}
	merged, err := core.MergeScatter(collected)
	if err != nil {
		return nil, &RouteError{Domain: domain, Err: err}
	}
	return merged, nil
}

// askBroadcast is the unclassifiable-question fallback: the question
// is asked in every hosted domain concurrently and the best
// single-domain answer wins — most exact answers, then most answers,
// then canonical (sorted) domain order, so the merge is deterministic.
// classifyErr is surfaced when no shard answers at all.
func (r *Router) askBroadcast(ctx context.Context, question string, classifyErr error) (*Proxied, error) {
	type cand struct {
		domain  string
		proxied *Proxied
		exact   int
		answers int
	}
	results := make([]*cand, len(r.domains))
	var wg sync.WaitGroup
	for i, domain := range r.domains {
		wg.Add(1)
		go func(i int, domain string) {
			defer wg.Done()
			p, err := r.askOwned(ctx, domain, question)
			if err != nil || p.Status != http.StatusOK {
				return
			}
			var body struct {
				ExactCount int               `json:"exact_count"`
				Answers    []json.RawMessage `json:"answers"`
			}
			if json.Unmarshal(p.Body, &body) != nil {
				return
			}
			results[i] = &cand{domain: domain, proxied: p, exact: body.ExactCount, answers: len(body.Answers)}
		}(i, domain)
	}
	wg.Wait()
	var best *cand
	for _, c := range results { // sorted domain order breaks ties
		if c == nil {
			continue
		}
		if best == nil || c.exact > best.exact || (c.exact == best.exact && c.answers > best.answers) {
			best = c
		}
	}
	if best == nil {
		if classifyErr == nil {
			return nil, &RouteError{Err: fmt.Errorf("no shard answered the broadcast")}
		}
		return nil, &RouteError{Err: fmt.Errorf("unclassifiable and no shard answered the broadcast: %w", classifyErr)}
	}
	p := *best.proxied
	p.Domain = "" // a merged answer was not routed to one domain
	return &p, nil
}

// ForwardAd fans one POST /api/ads body out to the shard owning the
// ad's Domain field. For a hash-partitioned domain the insert is
// spread round-robin — each partition assigns the new ad an id it
// owns, so any partition can take any unpinned insert — and the write
// waits out any rebalance fence first.
func (r *Router) ForwardAd(ctx context.Context, domain string, body []byte) (*Proxied, error) {
	return r.forwardAd(ctx, domain, body, "")
}

// ForwardAdPinned forwards an insert that pins its ad key (the
// X-Cqads-Ad-Id ingest header): the write routes to the partition
// owning the key's hash and carries the pin through.
func (r *Router) ForwardAdPinned(ctx context.Context, domain string, body []byte, adID string) (*Proxied, error) {
	return r.forwardAd(ctx, domain, body, adID)
}

// forwardAd is the shared insert path: admit through the fence, pick
// the partition, forward, and on a 421 (the partition no longer hosts
// the key — a rebalance cut over between snapshot and send) re-read
// the map and retry once.
func (r *Router) forwardAd(ctx context.Context, domain string, body []byte, adID string) (*Proxied, error) {
	ds, ok := r.states[domain]
	if !ok {
		return nil, &RouteError{Domain: domain, Err: ErrNoShard}
	}
	var key uint64
	hasKey := false
	var hdr map[string]string
	if adID != "" {
		id, err := strconv.ParseUint(adID, 10, 63)
		if err != nil {
			return nil, &RouteError{Domain: domain, Err: fmt.Errorf("invalid pinned ad id %q: %w", adID, err)}
		}
		key, hasKey = id, true
		hdr = map[string]string{webui.AdIDHeader: adID}
	}
	tok, err := ds.admitWrite(ctx, key, hasKey)
	if err != nil {
		return nil, &RouteError{Domain: domain, Err: err}
	}
	defer ds.release(tok)
	return r.forwardWrite(ctx, ds, domain, key, hasKey, func(p *partState) (string, int, []byte, error) {
		return r.doRouted(ctx, http.MethodPost, p, "/api/ads", body, "application/json", hdr)
	})
}

// ForwardDelete forwards DELETE /api/ads/{id}?domain=... to the owner
// — for a partitioned domain, to the partition owning the id's hash —
// waiting out any rebalance fence like an insert does.
func (r *Router) ForwardDelete(ctx context.Context, domain, id string) (*Proxied, error) {
	ds, ok := r.states[domain]
	if !ok {
		return nil, &RouteError{Domain: domain, Err: ErrNoShard}
	}
	// A non-numeric id cannot be hash-routed; forward it anyway (keyless,
	// so it queues behind any fence) and let the owning shard's own
	// parsing produce the authoritative error bytes.
	key, err := strconv.ParseUint(id, 10, 63)
	hasKey := err == nil
	tok, aerr := ds.admitWrite(ctx, key, hasKey)
	if aerr != nil {
		return nil, &RouteError{Domain: domain, Err: aerr}
	}
	defer ds.release(tok)
	q := url.Values{"domain": {domain}}
	path := "/api/ads/" + url.PathEscape(id) + "?" + q.Encode()
	return r.forwardWrite(ctx, ds, domain, key, hasKey, func(p *partState) (string, int, []byte, error) {
		return r.doRouted(ctx, http.MethodDelete, p, path, nil, "", nil)
	})
}

// forwardWrite picks the target partition for one admitted write and
// sends it, retrying once on 421 with a re-read partition map.
func (r *Router) forwardWrite(ctx context.Context, ds *domainState, domain string, key uint64, hasKey bool, send func(*partState) (string, int, []byte, error)) (*Proxied, error) {
	for attempt := 0; ; attempt++ {
		parts := ds.snapshot()
		var p *partState
		if hasKey && !(len(parts) == 1 && parts[0].slice.IsWhole()) {
			p = partFor(parts, key)
		} else {
			ds.mu.Lock()
			ds.rr++
			p = parts[ds.rr%uint64(len(parts))]
			ds.mu.Unlock()
		}
		if p == nil {
			return nil, &RouteError{Domain: domain, Err: fmt.Errorf("no partition owns key %d", key)}
		}
		base, status, respBody, err := send(p)
		if err != nil {
			return nil, &RouteError{Domain: domain, Shard: base, Err: err}
		}
		if status == http.StatusMisdirectedRequest && attempt == 0 {
			continue
		}
		return &Proxied{Domain: domain, Status: status, Body: respBody}, nil
	}
}

// ShardView is one shard's slice of a scatter-gathered cluster probe.
type ShardView struct {
	// URL is the shard's base URL; Domains the domains it owns.
	URL     string   `json:"url"`
	Domains []string `json:"domains"`
	// Reachable reports whether the probe got an HTTP response at all.
	Reachable bool `json:"reachable"`
	// StatusCode is the shard's HTTP status (0 when unreachable).
	StatusCode int `json:"status_code,omitempty"`
	// State is the shard's /healthz state ("serving", "recovering",
	// "write-failed"); empty for /api/status probes and failures.
	State string `json:"state,omitempty"`
	// Body is the shard's raw JSON response (status probes only).
	Body json.RawMessage `json:"status,omitempty"`
	// Error describes the probe failure.
	Error string `json:"error,omitempty"`
}

// urlView computes the current unique member URLs (sorted) and each
// URL's hosted domains — computed per call because rebalancing adds
// and retires members at runtime.
func (r *Router) urlView() ([]string, map[string][]string) {
	byURL := make(map[string][]string)
	for _, domain := range r.domains {
		parts, _ := r.partsOf(domain)
		seen := make(map[string]bool)
		for _, p := range parts {
			for _, base := range p.members {
				if !seen[base] {
					seen[base] = true
					byURL[base] = append(byURL[base], domain)
				}
			}
		}
	}
	urls := make([]string, 0, len(byURL))
	for base, ds := range byURL {
		sort.Strings(ds)
		urls = append(urls, base)
	}
	sort.Strings(urls)
	return urls, byURL
}

// URLs lists the unique member URLs currently in the routing table,
// sorted.
func (r *Router) URLs() []string {
	urls, _ := r.urlView()
	return urls
}

// ClusterStatus scatter-gathers GET /api/status across every shard,
// one view per unique shard URL in sorted order.
func (r *Router) ClusterStatus(ctx context.Context) []ShardView {
	return r.probeAll(ctx, "/api/status", false)
}

// ClusterHealth scatter-gathers GET /healthz across every shard.
func (r *Router) ClusterHealth(ctx context.Context) []ShardView {
	return r.probeAll(ctx, "/healthz", true)
}

// probeAll hits one path on every unique shard URL concurrently,
// each probe bounded by the probe timeout so a wedged shard cannot
// stall the cluster view for the data path's much longer deadline.
func (r *Router) probeAll(ctx context.Context, path string, health bool) []ShardView {
	ctx, cancel := context.WithTimeout(ctx, r.probeTimeout)
	defer cancel()
	urls, byURL := r.urlView()
	views := make([]ShardView, len(urls))
	var wg sync.WaitGroup
	for i, base := range urls {
		views[i] = ShardView{URL: base, Domains: byURL[base]}
		wg.Add(1)
		go func(v *ShardView, base string) {
			defer wg.Done()
			status, body, err := r.do(ctx, http.MethodGet, base, path, nil, "", nil)
			if err != nil {
				v.Error = err.Error()
				return
			}
			v.Reachable = true
			v.StatusCode = status
			if health {
				var h struct {
					State string `json:"state"`
				}
				if json.Unmarshal(body, &h) == nil {
					v.State = h.State
				}
				return
			}
			if json.Valid(body) {
				v.Body = json.RawMessage(body)
			} else {
				v.Error = "shard returned invalid JSON"
			}
		}(&views[i], base)
	}
	wg.Wait()
	return views
}

// do issues one upstream request and slurps the response.
func (r *Router) do(ctx context.Context, method, base, pathAndQuery string, body []byte, contentType string, hdr map[string]string) (int, []byte, error) {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+pathAndQuery, reader)
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, respBody, nil
}
