// Package shardtest builds the topologies the cross-topology
// equivalence harness compares: a monolith System, sharded Systems
// hosting domain subsets, full HTTP clusters (shard webui servers
// behind a front tier) and durable followers of a primary. Every builder derives from one cqads.Options
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
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/cqads"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/questions"
	"repro/internal/replica"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/sqldb"
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
// fails tb unless both answer each one the same (AssertSameResult). An
// error on either side fails tb.
func AssertSameAnswers(tb testing.TB, label string, qs []string, ref, got *cqads.System) {
	tb.Helper()
	for _, q := range qs {
		r, err1 := ref.Ask(q)
		g, err2 := got.Ask(q)
		if err1 != nil || err2 != nil {
			tb.Fatalf("%s: %q: reference err %v, other err %v", label, q, err1, err2)
		}
		AssertSameResult(tb, fmt.Sprintf("%s: %q", label, q), g, r)
	}
}

// AssertSameResult fails tb unless got answers as want does: the same
// ResultBody, and beside it the same row id and dropped condition for
// each answer.
func AssertSameResult(tb testing.TB, label string, got, want *cqads.Result) {
	tb.Helper()
	assertSame(tb, label, ResultBody(tb, got), ResultBody(tb, want), resultIDs(got), resultIDs(want))
}

// AssertMergedResult is AssertSameResult for a merged scatter part: got
// must have want's body (ScatterBody against ResultBody) and answer ids.
func AssertMergedResult(tb testing.TB, label string, got *core.ScatterResult, want *cqads.Result) {
	tb.Helper()
	assertSame(tb, label, ScatterBody(tb, got), ResultBody(tb, want), scatterIDs(got), resultIDs(want))
}

func assertSame(tb testing.TB, label string, got, want []byte, gotIDs, wantIDs []answerID) {
	tb.Helper()
	if !bytes.Equal(got, want) {
		tb.Fatalf("%s: /api/ask bodies differ:\n got: %s\nwant: %s", label, got, want)
	}
	if !slices.Equal(gotIDs, wantIDs) {
		tb.Fatalf("%s: answer ids and dropped conditions differ:\n got: %v\nwant: %v", label, gotIDs, wantIDs)
	}
}

// ResultBody returns the GET /api/ask body for res: the bytes
// json.Encoder writes for webui.BuildAPIResult, which the server's
// encoder reproduces. It holds the domain, interpretation, SQL and
// exact count, and each answer's exactness, Rank_Sim, similarity label
// and record, in order; two answers a client cannot tell apart have
// equal bodies. It does not hold an answer's row id or dropped
// condition: AssertSameResult compares those beside it.
func ResultBody(tb testing.TB, res *cqads.Result) []byte {
	tb.Helper()
	return encodeBody(tb, res.Question, webui.BuildAPIResult(res))
}

// ScatterBody is ResultBody for a merged scatter part (core.MergeScatter
// over the parts of every hash slice), encoded through
// webui.APIResultFromScatter: the body a front tier serves for it, and
// equal to ResultBody of the monolith's answer to the same question.
func ScatterBody(tb testing.TB, m *core.ScatterResult) []byte {
	tb.Helper()
	wire := &core.ScatterPart[map[string]string]{
		Domain:         m.Domain,
		Interpretation: m.Interpretation,
		SQL:            m.SQL,
		ExactCount:     m.ExactCount,
	}
	for _, a := range m.Answers {
		rec := make(map[string]string, a.Record.Len())
		for k, v := range a.Record.All() {
			rec[k] = v.String()
		}
		wire.Answers = append(wire.Answers, core.ScatterAnswer[map[string]string]{
			Exact: a.Exact, RankSim: a.RankSim, SimilarityUsed: a.SimilarityUsed, Record: rec,
		})
	}
	return encodeBody(tb, m.Interpretation, webui.APIResultFromScatter(wire))
}

func encodeBody(tb testing.TB, what string, res webui.APIResult) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(res); err != nil {
		tb.Fatalf("encoding %q: %v", what, err)
	}
	return buf.Bytes()
}

// answerID is what an answer carries beside its /api/ask body: its row
// id and the condition its relaxation dropped (-1 for an exact answer).
type answerID struct {
	ID          sqldb.RowID
	DroppedCond int
}

func resultIDs(res *cqads.Result) []answerID {
	ids := make([]answerID, len(res.Answers))
	for i, a := range res.Answers {
		ids[i] = answerID{a.ID, a.DroppedCond}
	}
	return ids
}

func scatterIDs(m *core.ScatterResult) []answerID {
	ids := make([]answerID, len(m.Answers))
	for i, a := range m.Answers {
		ids[i] = answerID{sqldb.RowID(a.ID), a.DroppedCond}
	}
	return ids
}

// AskBodies asks every question of qs at base's GET /api/ask and
// returns the response bodies in order. A transport error or a status
// other than 200 fails tb.
func AskBodies(tb testing.TB, base string, qs []string) [][]byte {
	tb.Helper()
	out := make([][]byte, len(qs))
	for i, q := range qs {
		status, body, err := askHTTP(base, q)
		if err != nil || status != http.StatusOK {
			tb.Fatalf("%s answered %d (%v) for %q: %s", base, status, err, q, body)
		}
		out[i] = body
	}
	return out
}

// AssertSameBodies asks every question of qs at gotBase's GET /api/ask
// and fails tb unless each one answers 200 with a body byte-equal to
// want[i]. It reports every diverging body and stops at the first
// transport error or other status. It fails tb only through Errorf,
// so a test may call it from several goroutines at once.
func AssertSameBodies(tb testing.TB, label string, qs []string, want [][]byte, gotBase string) {
	tb.Helper()
	for i, q := range qs {
		status, body, err := askHTTP(gotBase, q)
		if err != nil || status != http.StatusOK {
			tb.Errorf("%s: %q answered %d (%v): %s", label, q, status, err, body)
			return
		}
		if !bytes.Equal(body, want[i]) {
			tb.Errorf("%s: ask bytes diverge on %q\n got: %s\nwant: %s", label, q, body, want[i])
		}
	}
}

// askHTTP sends one GET /api/ask?q= to base and returns its status
// and body.
func askHTTP(base, q string) (int, []byte, error) {
	resp, err := http.Get(base + "/api/ask?" + url.Values{"q": {q}}.Encode())
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// AdRecord renders a generated ad as the JSON record POST /api/ads
// accepts.
func AdRecord(ad map[string]sqldb.Value) map[string]any {
	rec := make(map[string]any, len(ad))
	for col, v := range ad {
		if v.IsNull() {
			rec[col] = nil
			continue
		}
		rec[col] = v.String()
	}
	return rec
}

// PinnedPost ingests one ad through base's POST /api/ads under a
// caller-chosen ad id, so two topologies that replay the same ids
// assign identical row ids and stay comparable. Any status but 201 is
// an error.
func PinnedPost(base string, id uint64, body []byte) error {
	req, err := http.NewRequest(http.MethodPost, base+"/api/ads", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(webui.AdIDHeader, strconv.FormatUint(id, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	respBody, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("pinned ingest of id %d answered %d: %s", id, resp.StatusCode, respBody)
	}
	return nil
}

// Cluster is one sharded HTTP topology: shard webui servers, the
// routing table over them, and the front tier.
type Cluster struct {
	Groups  [][]string
	Systems []*cqads.System
	Servers []*httptest.Server
	// Map is the routing table: each domain to its shard's one group.
	Map    shard.Map
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
		Map:     shard.Map{},
	}
	for i, sys := range c.Systems {
		srv := httptest.NewServer(webui.NewServer(sys))
		c.Servers = append(c.Servers, srv)
		for _, d := range groups[i] {
			c.Map[d] = []shard.Group{{Members: []string{srv.URL}}}
		}
	}
	rt, err := shard.New(shard.Config{Map: c.Map, Classifier: cls})
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

// Follower is the follower topology: a durable read replica of a
// primary on a directory of its own, behind a webui server.
type Follower struct {
	// Opts built the follower; Opts.DataDir is its own directory.
	Opts cqads.Options
	Sys  *cqads.System
	// Tail feeds Sys from the primary. StartFollower and Restart leave
	// it stopped: a test steps it with SyncOnce or calls Start.
	Tail *replica.Follower
	// Server serves Sys, and answers POST /api/repl/promote by
	// stopping Tail and promoting Sys.
	Server  *httptest.Server
	primary string
	handler atomic.Value // servedHandler
}

// servedHandler boxes the handler behind Follower.Server, so that one
// URL keeps serving across a restart.
type servedHandler struct{ http.Handler }

// StartFollower opens a follower of the primary at primaryURL, built
// as cqads.OpenPeer on a fresh tb.TempDir() from opts: the primary's
// Seed and AdsPerDomain, with Domains naming the primary's domains or
// a subset of them, and Partitions/PartitionIndex its slice or a
// child of it. A partitioned follower's snapshot transfers ask for
// just its slice. Like any fresh directory, its first sync takes one
// snapshot transfer. The follower never compacts in the background
// (CompactBytes -1), so once its tail is stopped nothing writes its
// directory and Restart is a clean crash. Cleanup stops the tail and
// closes the server and the System.
func StartFollower(tb testing.TB, opts cqads.Options, primaryURL string) *Follower {
	tb.Helper()
	opts.DataDir = tb.TempDir()
	opts.CompactBytes = -1
	f := &Follower{Opts: opts, primary: primaryURL}
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.handler.Load().(servedHandler).ServeHTTP(w, r)
	}))
	f.open(tb)
	tb.Cleanup(func() {
		f.Tail.Close()
		f.Server.Close()
		_ = f.Sys.Close()
	})
	return f
}

// Restart is a crash and a restart: it stops the tail, abandons Sys
// without Close, so no final checkpoint is written, and reopens
// Opts.DataDir as a follower of the same primary behind the same
// server URL.
func (f *Follower) Restart(tb testing.TB) {
	tb.Helper()
	f.Tail.Close()
	f.open(tb)
}

// Serve puts h behind the follower's server URL in place of the
// System's webui.
func (f *Follower) Serve(h http.Handler) { f.handler.Store(servedHandler{h}) }

func (f *Follower) open(tb testing.TB) {
	tb.Helper()
	sys, err := cqads.OpenPeer(f.Opts)
	if err != nil {
		tb.Fatalf("opening follower in %s: %v", f.Opts.DataDir, err)
	}
	cfg := replica.Config{Primary: f.primary, PollWait: 50 * time.Millisecond, RetryInterval: 20 * time.Millisecond}
	if f.Opts.Partitions > 1 {
		cfg.SnapshotQuery = "partition=" + partition.Slice{Index: f.Opts.PartitionIndex, Count: f.Opts.Partitions}.String()
	}
	tail, err := replica.Attach(sys, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	f.Sys, f.Tail = sys, tail
	f.Serve(webui.NewServerWith(sys, webui.Options{Promoter: tail}))
}
