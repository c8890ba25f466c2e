// Package shardtest builds the topologies the cross-topology
// equivalence harness compares: a monolith System, sharded Systems
// hosting domain subsets, and full HTTP clusters (shard webui servers
// behind a front tier). Every builder derives from one cqads.Options
// value, so by construction each topology answers over the same
// deterministic corpus — the tests then assert the answers are
// bit-identical. It also generates the paper-sized 650-question
// workload (80 cars + 570 across the other seven domains, Sec. 5.1)
// used to drive the comparison.
package shardtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/cqads"
	"repro/internal/partition"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/webui"
)

// Options is the shared deterministic base every topology in one
// comparison must be built from.
func Options(adsPerDomain int) cqads.Options {
	return cqads.Options{Seed: 42, AdsPerDomain: adsPerDomain}
}

// Groups8 is the one-domain-per-shard partition.
func Groups8() [][]string {
	out := make([][]string, len(schema.DomainNames))
	for i, d := range schema.DomainNames {
		out[i] = []string{d}
	}
	return out
}

// Groups2 is the four-domains-per-shard partition.
func Groups2() [][]string {
	names := schema.DomainNames
	half := len(names) / 2
	return [][]string{
		append([]string(nil), names[:half]...),
		append([]string(nil), names[half:]...),
	}
}

// NewClassifier builds the front-tier routing classifier for opts —
// the construction a monolith with the same options classifies with.
func NewClassifier(tb testing.TB, opts cqads.Options) *cqads.QuestionClassifier {
	tb.Helper()
	qc, err := cqads.NewQuestionClassifier(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return qc
}

// OpenMonolith builds the single-process topology.
func OpenMonolith(tb testing.TB, opts cqads.Options) *cqads.System {
	tb.Helper()
	opts.Domains = nil
	sys, err := cqads.Open(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return sys
}

// OpenShardSystems builds one System per group, each hosting only its
// group's domains.
func OpenShardSystems(tb testing.TB, opts cqads.Options, groups [][]string) []*cqads.System {
	tb.Helper()
	systems := make([]*cqads.System, len(groups))
	for i, group := range groups {
		o := opts
		o.Domains = group
		sys, err := cqads.Open(o)
		if err != nil {
			tb.Fatalf("opening shard %v: %v", group, err)
		}
		systems[i] = sys
	}
	return systems
}

// OpenPartitionSystems builds one System per hash slice of a single
// domain: count power-of-two partitions that together hold exactly the
// monolith's rows for that domain, each classifier-identical to the
// monolith (the partition filter runs after training). When
// opts.DataDir is set each partition stores under its own
// subdirectory, so the set is durable and can serve replication.
func OpenPartitionSystems(tb testing.TB, opts cqads.Options, domain string, count uint32) []*cqads.System {
	tb.Helper()
	systems := make([]*cqads.System, count)
	for i := uint32(0); i < count; i++ {
		o := opts
		o.Domains = []string{domain}
		o.Partitions = count
		o.PartitionIndex = i
		if o.DataDir != "" {
			o.DataDir = filepath.Join(opts.DataDir, fmt.Sprintf("part%d", i))
		}
		sys, err := cqads.Open(o)
		if err != nil {
			tb.Fatalf("opening partition h%d/%d of %s: %v", i, count, domain, err)
		}
		systems[i] = sys
	}
	return systems
}

// Workload generates the 650-question test workload from the
// monolith's tables, mirroring the paper's survey split: 80 cars
// questions plus 570 across the other seven domains. The questions
// (and their order) are deterministic in opts.Seed, and the shards'
// tables are byte-identical per domain, so one workload drives every
// topology.
func Workload(tb testing.TB, opts cqads.Options, sys *cqads.System) []string {
	tb.Helper()
	const (
		carsCount   = 80
		othersTotal = 570
	)
	seedBase := opts.Seed
	perOther := othersTotal / (len(schema.DomainNames) - 1)
	extra := othersTotal % (len(schema.DomainNames) - 1)
	var out []string
	for i, d := range schema.DomainNames {
		n := perOther
		if d == "cars" {
			n = carsCount
		} else if i <= extra {
			n++
		}
		tbl, ok := sys.DB().TableForDomain(d)
		if !ok {
			tb.Fatalf("monolith has no table for %q", d)
		}
		gen := questions.NewGenerator(tbl, seedBase+404+int64(i))
		for _, q := range gen.Generate(n, questions.DefaultOptions()) {
			out = append(out, q.Text)
		}
	}
	if len(out) != carsCount+othersTotal {
		tb.Fatalf("workload has %d questions, want %d", len(out), carsCount+othersTotal)
	}
	return out
}

// SmokeQuestions are five questions whose answers cover exact
// matches, a superlative, relaxation, an OR group and classification
// into a second domain: the questions a topology test asks to compare
// two systems.
var SmokeQuestions = []string{
	"Find Honda Accord blue less than 15,000 dollars",
	"cheapest honda",
	"blue car",
	"red or blue toyota under $9000",
	"gold necklace diamond",
}

// AssertSameAnswers asks every question of qs on ref and on got and
// fails tb unless both answer each one the same. Two answers are the
// same when they encode to the same GET /api/ask body (the bytes
// json.Encoder writes for webui.BuildAPIResult, which the server's
// encoder reproduces): domain, interpretation, SQL, exact count, and
// each answer's exactness, Rank_Sim, similarity label and record, in
// order. The body does not carry an answer's row id or its dropped
// condition, so those are compared beside it. An error on either side
// fails tb.
func AssertSameAnswers(tb testing.TB, label string, qs []string, ref, got *cqads.System) {
	tb.Helper()
	for _, q := range qs {
		r, err1 := ref.Ask(q)
		g, err2 := got.Ask(q)
		if err1 != nil || err2 != nil {
			tb.Fatalf("%s: %q: reference err %v, other err %v", label, q, err1, err2)
		}
		rb, gb := askBody(tb, r), askBody(tb, g)
		if !bytes.Equal(rb, gb) {
			tb.Fatalf("%s: %q: /api/ask bodies differ:\nreference %s\nother     %s", label, q, rb, gb)
		}
		for i := range r.Answers {
			x, y := r.Answers[i], g.Answers[i]
			if x.ID != y.ID || x.DroppedCond != y.DroppedCond {
				tb.Fatalf("%s: %q: answer %d: reference id %d dropped %d, other id %d dropped %d",
					label, q, i, x.ID, x.DroppedCond, y.ID, y.DroppedCond)
			}
		}
	}
}

// askBody returns the GET /api/ask body for res.
func askBody(tb testing.TB, res *cqads.Result) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(webui.BuildAPIResult(res)); err != nil {
		tb.Fatalf("encoding %q: %v", res.Question, err)
	}
	return buf.Bytes()
}

// Cluster is one sharded HTTP topology: shard webui servers, the
// routing table over them, and the front tier.
type Cluster struct {
	Groups  [][]string
	Systems []*cqads.System
	Servers []*httptest.Server
	// Map is the domain → shard base URL routing table.
	Map    map[string]string
	Router *shard.Router
	Front  *httptest.Server
}

// StartCluster builds the shard Systems for groups, serves each
// behind a webui server, and fronts them with a shard.Server routing
// through cls.
func StartCluster(tb testing.TB, opts cqads.Options, groups [][]string, cls shard.Classifier) *Cluster {
	tb.Helper()
	c := &Cluster{
		Groups:  groups,
		Systems: OpenShardSystems(tb, opts, groups),
		Map:     make(map[string]string),
	}
	for i, sys := range c.Systems {
		srv := httptest.NewServer(webui.NewServer(sys))
		c.Servers = append(c.Servers, srv)
		for _, d := range groups[i] {
			c.Map[d] = srv.URL
		}
	}
	rt, err := shard.New(shard.Config{Shards: c.Map, Classifier: cls})
	if err != nil {
		c.Close()
		tb.Fatal(err)
	}
	c.Router = rt
	c.Front = httptest.NewServer(shard.NewServer(rt))
	tb.Cleanup(c.Close)
	return c
}

// PartitionCluster is one hash-partitioned HTTP topology: count webui
// servers each hosting one hash slice of Domain, one server hosting
// every other domain whole, and the front tier scattering over them.
type PartitionCluster struct {
	Domain string
	Count  uint32
	// Parts and PartServers are indexed by hash-slice index.
	Parts       []*cqads.System
	PartServers []*httptest.Server
	Rest        *cqads.System
	RestServer  *httptest.Server
	Map         shard.Map
	Router      *shard.Router
	Front       *httptest.Server
}

// StartPartitionCluster builds a cluster with domain hash-split count
// ways (count a power of two) and the remaining domains on one whole
// shard. newReb, when non-nil, builds the front tier's rebalance
// coordinator from the finished router (tests pass rebalance.New;
// shardtest stays ignorant of the concrete type).
func StartPartitionCluster(tb testing.TB, opts cqads.Options, domain string, count uint32, cls shard.Classifier, newReb func(*shard.Router) shard.Rebalancer) *PartitionCluster {
	tb.Helper()
	c := &PartitionCluster{
		Domain: domain,
		Count:  count,
		Parts:  OpenPartitionSystems(tb, opts, domain, count),
		Map:    shard.Map{},
	}
	tb.Cleanup(c.Close)
	for i, sys := range c.Parts {
		srv := httptest.NewServer(webui.NewServer(sys))
		c.PartServers = append(c.PartServers, srv)
		c.Map[domain] = append(c.Map[domain], shard.Group{
			Slice:   partition.Slice{Index: uint32(i), Count: count},
			Members: []string{srv.URL},
		})
	}
	var rest []string
	for _, d := range schema.DomainNames {
		if d != domain {
			rest = append(rest, d)
		}
	}
	o := opts
	o.Domains = rest
	if o.DataDir != "" {
		o.DataDir = filepath.Join(opts.DataDir, "rest")
	}
	restSys, err := cqads.Open(o)
	if err != nil {
		tb.Fatalf("opening rest shard: %v", err)
	}
	c.Rest = restSys
	c.RestServer = httptest.NewServer(webui.NewServer(restSys))
	for _, d := range rest {
		c.Map[d] = []shard.Group{{Members: []string{c.RestServer.URL}}}
	}
	rt, err := shard.New(shard.Config{Map: c.Map, Classifier: cls})
	if err != nil {
		tb.Fatal(err)
	}
	c.Router = rt
	var sopts shard.ServerOptions
	if newReb != nil {
		sopts.Rebalancer = newReb(rt)
	}
	c.Front = httptest.NewServer(shard.NewServerWith(rt, sopts))
	return c
}

// Close tears the partition cluster down; safe to call twice.
func (c *PartitionCluster) Close() {
	if c.Front != nil {
		c.Front.Close()
		c.Front = nil
	}
	if c.Router != nil {
		c.Router.Close()
		c.Router = nil
	}
	for i, srv := range c.PartServers {
		if srv != nil {
			srv.Close()
			c.PartServers[i] = nil
		}
	}
	if c.RestServer != nil {
		c.RestServer.Close()
		c.RestServer = nil
	}
	for _, sys := range c.Parts {
		if sys != nil {
			_ = sys.Close()
		}
	}
	c.Parts = nil
	if c.Rest != nil {
		_ = c.Rest.Close()
		c.Rest = nil
	}
}

// KillShard makes shard i unreachable (its listener closes), leaving
// the rest of the cluster untouched — the degraded-mode scenario.
func (c *Cluster) KillShard(i int) {
	if c.Servers[i] != nil {
		c.Servers[i].Close()
		c.Servers[i] = nil
	}
}

// Close tears the cluster down; safe to call twice (Cleanup does).
func (c *Cluster) Close() {
	if c.Front != nil {
		c.Front.Close()
		c.Front = nil
	}
	if c.Router != nil {
		c.Router.Close()
		c.Router = nil
	}
	for i := range c.Servers {
		c.KillShard(i)
	}
	for _, sys := range c.Systems {
		if sys != nil {
			_ = sys.Close()
		}
	}
	c.Systems = nil
}
