// Package shard splits the ads domains across processes. Each SHARD is
// an ordinary cqadsweb server hosting a subset of the domains
// (core.Config.Domains / `cqadsweb -domains`): it owns those tables,
// their write-ahead log and snapshots, and may itself have read
// replicas. The FRONT TIER (Router + Server, `cqadsweb -shards`) holds
// no corpus at all: it classifies each incoming question exactly once
// — with the same classifier construction a monolith uses, so the
// routing decision is identical — and forwards the question to the
// shard owning the classified domain, proxying the shard's answer
// bytes verbatim. Ingest is fanned out by the ad's Domain field;
// /api/status and /healthz are scatter-gathered into a cluster view.
//
// A single hot domain splits further by ad-key hash: a map entry may
// list one group per hash slice ("cars=h0:http://a,h1:http://b", the
// slice grammar of internal/partition, each group optionally a
// "|"-separated replica set). In-domain questions are then scattered
// to every partition — each leg carries the slice it addresses in the
// webui.ScatterHeader and returns a raw ranked fragment — and the
// router merges the fragments deterministically (score order, RowID
// tie-break) into bytes identical to a monolith's answer. Ingest
// routes by the ad key's hash; unpinned inserts round-robin, since
// every partition allocates only ids it owns. The Rebalancer hook on
// Server (implemented by internal/shard/rebalance) moves a slice live
// through FenceWrites/SwapPartition: the fence QUEUES writes to just
// the moving slice rather than erroring them, reads never pause.
//
// Failure model: ownership is static, so an unreachable shard cannot
// be routed around — its domains degrade to empty answers with the
// error surfaced in the response envelope while every other domain
// keeps answering. A question the classifier cannot place is
// broadcast to every hosted domain and the best single-domain answer
// wins (most exact answers, then most answers, then canonical domain
// order) — the router never panics on adversarial input.
package shard

import (
	"errors"
	"fmt"
	"math/bits"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"repro/internal/partition"
)

// Classifier routes a question to its ads domain. The standard
// implementation is cqads.NewQuestionClassifier, built with the same
// Seed/AdsPerDomain as the shards so the front tier routes exactly as
// a monolith would classify.
type Classifier interface {
	ClassifyQuestion(question string) (string, error)
}

// ErrNoShard reports a domain no shard in the map hosts: either the
// request named an unknown domain or the shard map does not cover the
// classifier's output.
var ErrNoShard = errors.New("shard: no shard hosts the domain")

// RouteError is the typed failure envelope for one routed request: it
// names the domain the request was routed to and the shard that
// failed to answer. errors.Is unwraps through Err (so transport
// timeouts, context cancellation and ErrNoShard stay matchable), and
// Status carries the shard's HTTP status when the shard answered at
// all.
type RouteError struct {
	// Domain the request was routed to ("" when classification itself
	// failed and broadcast found no answer).
	Domain string
	// Shard is the owning shard's base URL ("" for ErrNoShard).
	Shard string
	// Status is the shard's HTTP status code, 0 when the shard was
	// unreachable (transport error, timeout).
	Status int
	// Err is the underlying failure.
	Err error
}

func (e *RouteError) Error() string {
	switch {
	case e.Shard == "":
		return fmt.Sprintf("shard: domain %q: %v", e.Domain, e.Err)
	case e.Status != 0:
		return fmt.Sprintf("shard: domain %q at %s answered %d: %v", e.Domain, e.Shard, e.Status, e.Err)
	default:
		return fmt.Sprintf("shard: domain %q at %s unreachable: %v", e.Domain, e.Shard, e.Err)
	}
}

func (e *RouteError) Unwrap() error { return e.Err }

// Group is one partition of a domain in a shard map: the hash slice it
// owns and the replica-set members serving it. An unpartitioned domain
// is a single Group owning the whole hash space.
type Group struct {
	// Slice is the hash slice this group owns (partition.Slice; the
	// whole space for an unpartitioned domain).
	Slice partition.Slice
	// Members are the replica-set base URLs, canonicalized (absolute
	// http(s), trailing slash stripped). One member means static
	// routing; several mean the router follows the set's elected
	// leader.
	Members []string
}

// Map is a parsed shard map: every hosted domain to its partitions,
// sorted by ascending hash index and together covering the whole hash
// space exactly once.
type Map map[string][]Group

// ParseMap parses a `-shards` flag value: comma-separated entries.
// The basic entry is domain=group, where a group is one shard URL or a
// "|"-separated replica set ("|" because "," already separates
// entries), e.g.
//
//	cars=http://a:8081,motorcycles=http://a:8081,csjobs=http://b:8082
//	cars=http://a1:8081|http://a2:8081|http://a3:8081,csjobs=http://b:8082
//
// A domain may instead be HASH-PARTITIONED across several groups: the
// first entry names the domain and hash slot 0, and bare continuation
// entries (`hN:group`, no "=") attach the remaining slots to the same
// domain:
//
//	cars=h0:http://a:8081,h1:http://b:8082,csjobs=http://c:8083
//	cars=h0:http://a1|http://a2,h1:http://b1|http://b2
//
// A partitioned domain's slot indices must be exactly 0..P−1 for a
// power-of-two P (each ad key routes by partition.KeyHash's low bits),
// and hash slots cannot mix with a plain entry for the same domain.
// The same group may serve several domains (a multi-domain shard).
// A single-URL group is routed to statically, exactly as before
// replica sets existed; a multi-URL group makes the router resolve the
// set's current leader through GET /api/repl/leader and follow it
// across elections. Entries are trimmed and empty entries skipped
// (trailing commas are harmless); URLs must be absolute http or https,
// a domain may be mapped only once, and a group may not list the same
// URL twice. Trailing slashes are stripped so joined request paths are
// canonical.
func ParseMap(s string) (Map, error) {
	out := make(Map)
	// hashed[domain] records the slot indices seen so far so the cover
	// can be validated once the whole flag is parsed.
	hashed := make(map[string][]uint32)
	lastDomain := ""
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		domain, raw, isMapping := strings.Cut(entry, "=")
		if !isMapping {
			// A bare hN:group entry continues the previous domain's
			// hash slots.
			if _, isHash := splitHashSlot(entry); !isHash {
				return nil, fmt.Errorf("shard: map entry %q is not domain=URL", entry)
			}
			if lastDomain == "" || hashed[lastDomain] == nil {
				return nil, fmt.Errorf("shard: map entry %q continues no hash-partitioned domain", entry)
			}
			domain, raw = lastDomain, entry
		} else {
			domain = strings.TrimSpace(domain)
			raw = strings.TrimSpace(raw)
			if domain == "" || raw == "" {
				return nil, fmt.Errorf("shard: map entry %q is not domain=URL", entry)
			}
			if _, dup := out[domain]; dup {
				return nil, fmt.Errorf("shard: domain %q is mapped twice", domain)
			}
		}
		// Plain/hash mixing for one domain cannot parse: a second
		// `domain=` entry is a duplicate, and continuations are
		// hash-form by construction.
		if slot, isHash := splitHashSlot(raw); isHash {
			raw = raw[strings.Index(raw, ":")+1:]
			hashed[domain] = append(hashed[domain], slot)
		}
		group, err := parseGroup(entry, raw)
		if err != nil {
			return nil, err
		}
		out[domain] = append(out[domain], Group{Members: group})
		lastDomain = domain
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("shard: empty shard map")
	}
	// Assign and validate slices: a hash-partitioned domain's slots
	// must be a permutation of 0..P−1 with P a power of two.
	for domain, groups := range out {
		slots, isHash := hashed[domain]
		if !isHash {
			continue
		}
		p := uint32(len(slots))
		if bits.OnesCount32(p) != 1 {
			return nil, fmt.Errorf("shard: domain %q has %d hash slots; the partition count must be a power of two", domain, p)
		}
		seen := make([]bool, p)
		for i, slot := range slots {
			if slot >= p || seen[slot] {
				return nil, fmt.Errorf("shard: domain %q hash slots must be exactly h0..h%d, each once (got h%d)", domain, p-1, slot)
			}
			seen[slot] = true
			groups[i].Slice = partition.Slice{Index: slot, Count: p}
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a].Slice.Index < groups[b].Slice.Index })
	}
	return out, nil
}

// splitHashSlot recognizes a "hN:rest" hash-slot prefix and returns N.
func splitHashSlot(s string) (slot uint32, ok bool) {
	head, _, found := strings.Cut(s, ":")
	if !found || len(head) < 2 || head[0] != 'h' {
		return 0, false
	}
	n, err := strconv.ParseUint(head[1:], 10, 32)
	if err != nil {
		return 0, false
	}
	return uint32(n), true
}

// parseGroup parses one "|"-separated replica set.
func parseGroup(entry, raw string) ([]string, error) {
	var group []string
	for _, member := range strings.Split(raw, "|") {
		member = strings.TrimSpace(member)
		if member == "" {
			return nil, fmt.Errorf("shard: map entry %q has an empty replica-set member", entry)
		}
		u, err := url.Parse(member)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("shard: map entry %q: %q is not an absolute http(s) URL", entry, member)
		}
		canonical := strings.TrimRight(u.String(), "/")
		for _, seen := range group {
			if seen == canonical {
				return nil, fmt.Errorf("shard: map entry %q lists %q twice", entry, canonical)
			}
		}
		group = append(group, canonical)
	}
	return group, nil
}
