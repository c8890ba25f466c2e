// Command cqadsweb serves the HTML question-answering interface of
// Sec. 4.5 over the synthetic eight-domain database.
//
// Usage:
//
//	cqadsweb [-addr :8080] [-seed N] [-ads N] [-data DIR]
//	         [-domains cars,csjobs,...] [-partition h1/2]
//	         [-ingest 2s] [-expire 30s]
//	         [-replicate-from URL -data DIR]
//	         [-replica-set URL1,URL2,URL3 -advertise URL [-lease 2s]]
//	         [-shards "cars=h0:http://a,h1:http://b,csjobs=http://c,..."]
//
// With -ingest set, the server keeps the corpus live: a background
// writer posts a freshly generated ad to a rotating domain every
// interval (exercising System.InsertAd against concurrent questions),
// and with -expire additionally deletes the oldest live ingested ad
// every expiry interval (System.DeleteAd), so a running server is
// continuously answering questions over ads posted seconds earlier.
//
// With -data set, the store is durable: every ingested or expired ad
// is write-ahead logged before the HTTP response is sent, a SIGKILL
// loses nothing (restart with the same -data directory recovers the
// corpus from snapshot + WAL replay), and a graceful shutdown
// (SIGINT/SIGTERM) checkpoints before exiting so the next start
// replays nothing. GET /api/status reports the checkpoint and WAL
// state.
//
// Replication roles:
//
//   - A durable server (-data) is implicitly a PRIMARY: it serves the
//     snapshot transfer (GET /api/repl/snapshot) and the long-polled
//     WAL stream (GET /api/repl/wal) that followers consume.
//   - -replicate-from URL (with -data) starts a FOLLOWER: a
//     non-voting peer that tails the primary's WAL into its own
//     durable store, serves read-only answers (writes get 4xx until
//     POST /api/repl/promote, after which it writes durably) and runs
//     no election. A fresh -data directory takes one snapshot transfer
//     before it serves (startup fails if the primary is unreachable or
//     lacks a domain the follower hosts); after that it streams the
//     WAL, and takes another transfer only when the primary has
//     compacted past its cursor. A restart — SIGKILL included —
//     resumes from the follower's own log. The follower must use the
//     same -seed/-ads as the primary: a snapshot carries table
//     contents and classifier state, while the similarity matrices
//     are rebuilt from the seed.
//   - -replica-set URL1,URL2,URL3 (with -advertise and -data) makes
//     this server a symmetric PEER in a self-healing replica set. All
//     members run the same flags (each with its own -advertise and
//     -data); a lease-based election picks one leader, the rest tail
//     its WAL, and when the leader dies the freshest follower
//     auto-promotes within the -lease timeout. Writes accept
//     ?ack=local|quorum: quorum waits until a majority of the set has
//     durably applied the op, so those writes survive any single
//     failure. GET /api/repl/leader reports the set's current leader
//     for clients (and the front tier) to follow.
//
// Sharding roles:
//
//   - -domains cars,csjobs makes this server a SHARD: it hosts (and,
//     with -data, persists and replicates) only the named domains and
//     rejects ads addressed elsewhere with HTTP 421. A follower of a
//     shard must use the same -domains, or a subset of them (plus
//     -seed/-ads), as its primary.
//   - -shards "cars=http://a,..." makes this process the shard FRONT
//     TIER: it holds no corpus, classifies each question once (same
//     -seed/-ads as the shards so routing matches a monolith), and
//     forwards questions and ingest to the owning shards,
//     scatter-gathering /api/status and /healthz into a cluster view.
//     Unreachable shards degrade to empty answers with the error in
//     the response envelope; other domains are unaffected.
//   - -partition h1/2 (with -domains naming exactly one domain)
//     narrows a shard to a hash PARTITION: it hosts only the ads
//     whose splitmix64 key hash lands in slice 1 of 2 (the count must
//     be a power of two) and 421s ingest addressed elsewhere. In the
//     front tier's map a hash-split domain lists one group per slice
//     ("cars=h0:http://a,h1:http://b", each group optionally a
//     "|"-separated replica set); the front tier scatters in-domain
//     questions to every partition and merges the ranked fragments
//     into answers byte-identical to a monolith's. Combined with
//     -replicate-from, -partition may name a CHILD slice of the
//     primary's (e.g. h3/4 under a h1/2 primary): the follower keeps
//     only that slice and its snapshot transfers fetch just that
//     slice of the primary's — the rebalance transfer path.
//     Once a rebalance has promoted it, the target is a plain durable
//     partition: restart it as -domains cars -partition h3/4 -data DIR,
//     without -replicate-from.
//
// A front tier also serves POST /api/rebalance, the live split/move:
// given a source slice, a caught-up follower of it and the child
// slice to move ({"domain":"cars","source":"h1/2","target_url":
// "http://t","target_slice":"h3/4"}), the coordinator fences just the
// moving slice's writes (queued, not errored), waits the target to
// the source's final sequence, promotes it, cuts the routing map
// over, retires the moved rows from the source and lifts the fence —
// no query is dropped and no acked write is lost. Progress appears
// under "rebalance" in the front tier's /api/status.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/cqads"
	"repro/internal/adsgen"
	"repro/internal/failover"
	"repro/internal/partition"
	"repro/internal/replica"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/shard/rebalance"
	"repro/internal/sqldb"
	"repro/internal/webui"
)

// runFrontTier serves the shard front tier: parse the shard map, build
// the routing classifier (the same construction a monolith with these
// options would classify with), and route every request to the owning
// shard until a shutdown signal.
func runFrontTier(addr, shardMap string, opts cqads.Options) {
	m, err := shard.ParseMap(shardMap)
	if err != nil {
		log.Fatal(err)
	}
	// Fail a typo'd shard map at startup, not as silent per-query
	// 404s: every mapped domain must be one the classifier can route.
	valid := make(map[string]bool, len(schema.DomainNames))
	for _, d := range schema.DomainNames {
		valid[d] = true
	}
	for d := range m {
		if !valid[d] {
			log.Fatalf("-shards maps unknown domain %q (valid: %s)", d, strings.Join(schema.DomainNames, ", "))
		}
	}
	qc, err := cqads.NewQuestionClassifier(opts)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := shard.New(shard.Config{Map: m, Classifier: qc})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	reb := rebalance.New(rt, nil)
	srv := &http.Server{Addr: addr, Handler: shard.NewServerWith(rt, shard.ServerOptions{Rebalancer: reb})}
	errc := make(chan error, 1)
	urls := make(map[string]bool, len(m))
	for _, groups := range m {
		for _, g := range groups {
			for _, u := range g.Members {
				urls[u] = true
			}
		}
	}
	go func() {
		fmt.Printf("CQAds front tier listening on %s, routing %d domains across %d shard nodes\n",
			addr, len(m), len(urls))
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("shutting down front tier: draining requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
}

// config is the parsed command line.
type config struct {
	addr, dataDir, replicateFrom, domains, partition string
	shards, replicaSet, advertise                    string
	seed                                             int64
	ads                                              int
	ingest, expire, lease                            time.Duration
}

// parseFlags defines the command's flags on fs, parses args and
// checks the resulting combination.
func parseFlags(fs *flag.FlagSet, args []string) (config, error) {
	var c config
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.Int64Var(&c.seed, "seed", 42, "deterministic environment seed")
	fs.IntVar(&c.ads, "ads", 500, "ads per domain")
	fs.StringVar(&c.dataDir, "data", "", "durable data directory (snapshot + write-ahead log); empty serves in-memory only")
	fs.DurationVar(&c.ingest, "ingest", 0, "post one generated ad per interval (0 disables live ingestion)")
	fs.DurationVar(&c.expire, "expire", 0, "delete the oldest ingested ad per interval (requires -ingest)")
	fs.StringVar(&c.replicateFrom, "replicate-from", "", "run as a read replica of the primary at this base URL (requires -data and the primary's -seed/-ads)")
	fs.StringVar(&c.domains, "domains", "", "comma-separated subset of ads domains this server hosts (shard mode; default: all eight)")
	fs.StringVar(&c.partition, "partition", "", `hash slice of the hosted domain this server owns, e.g. "h2/4" (partition mode; requires -domains with exactly one domain)`)
	fs.StringVar(&c.shards, "shards", "", `front-tier mode: comma-separated domain=group shard map where a group is one URL or a "|"-separated replica set (e.g. "cars=http://a1|http://a2|http://a3,csjobs=http://b"); a hash-partitioned domain lists one hN:-prefixed group per slice ("cars=h0:http://a,h1:http://b"); this process holds no corpus and routes to the shards, following each set's elected leader`)
	fs.StringVar(&c.replicaSet, "replica-set", "", `self-healing peer mode: comma-separated advertised base URLs of every replica-set member including this node (e.g. "http://a:8081,http://b:8082,http://c:8083"); requires -data and -advertise`)
	fs.StringVar(&c.advertise, "advertise", "", "this node's advertised base URL, as it appears in -replica-set and in peers' flags (requires -replica-set)")
	fs.DurationVar(&c.lease, "lease", 0, "base leader-lease timeout before followers campaign (0 uses the failover default; must be several times the 250ms heartbeat; requires -replica-set)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	return c, checkFlags(c)
}

// checkFlags rejects flag combinations whose mode would silently
// ignore a flag, and combinations of modes that cannot run together.
func checkFlags(c config) error {
	if c.ingest < 0 || c.expire < 0 || c.lease < 0 {
		return errors.New("-ingest, -expire and -lease take non-negative durations")
	}
	switch {
	case c.shards != "":
		if c.dataDir != "" || c.ingest != 0 || c.expire != 0 || c.replicateFrom != "" || c.domains != "" ||
			c.partition != "" || c.replicaSet != "" || c.advertise != "" || c.lease != 0 {
			return errors.New("-shards runs a corpus-less front tier: it is incompatible with -data, -ingest, -expire, -replicate-from, -domains, -partition, -replica-set, -advertise and -lease")
		}
	case c.replicaSet != "":
		if c.advertise == "" || c.dataDir == "" {
			return errors.New("-replica-set needs -advertise (this node's URL in the set) and -data (peers are durable)")
		}
		if c.replicateFrom != "" {
			return errors.New("-replica-set is incompatible with -replicate-from: the failover agent owns the replication tail")
		}
	case c.advertise != "" || c.lease != 0:
		return errors.New("-advertise and -lease configure a replica-set peer: they require -replica-set")
	case c.replicateFrom != "" && c.ingest != 0:
		return errors.New("-replicate-from is incompatible with -ingest: followers replicate the primary's corpus")
	case c.replicateFrom != "" && c.dataDir == "":
		return errors.New("-replicate-from needs -data: a follower logs what it applies and restarts from its own directory")
	}
	if c.expire != 0 && c.ingest == 0 {
		return errors.New("-expire deletes ads the background writer posted: it requires -ingest")
	}
	return nil
}

func main() {
	c, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		log.Fatal(err)
	}
	if c.shards != "" {
		runFrontTier(c.addr, c.shards, cqads.Options{Seed: c.seed, AdsPerDomain: c.ads})
		return
	}

	opts := cqads.Options{Seed: c.seed, AdsPerDomain: c.ads, DataDir: c.dataDir}
	if c.domains != "" {
		for _, d := range strings.Split(c.domains, ",") {
			if d = strings.TrimSpace(d); d != "" {
				opts.Domains = append(opts.Domains, d)
			}
		}
		fmt.Printf("shard mode: hosting %s\n", strings.Join(opts.Domains, ", "))
	}
	var slice partition.Slice
	if c.partition != "" {
		sl, err := partition.Parse(c.partition)
		if err != nil {
			log.Fatal(err)
		}
		slice = sl
		opts.Partitions = sl.Count
		opts.PartitionIndex = sl.Index
		fmt.Printf("partition mode: owning hash slice %s\n", sl)
	}
	var sys *cqads.System
	var follower *replica.Follower
	var agent *failover.Agent
	webOpts := webui.Options{}

	if c.replicaSet != "" {
		members := map[string]bool{strings.TrimRight(c.advertise, "/"): true}
		peers := []string{}
		for _, u := range strings.Split(c.replicaSet, ",") {
			if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
				members[u] = true
				peers = append(peers, u)
			}
		}
		// Election majority and write quorum must agree on the set size.
		opts.ReplicaSet = len(members)
		s, err := cqads.OpenPeer(opts)
		if err != nil {
			log.Fatal(err)
		}
		sys = s
		agent, err = failover.New(failover.Config{
			Self:         strings.TrimRight(c.advertise, "/"),
			Peers:        peers,
			Sys:          sys,
			LeaseTimeout: c.lease,
		})
		if err != nil {
			log.Fatal(err)
		}
		webOpts.Failover = agent
		st := sys.Status()
		fmt.Printf("replica-set peer %s (%d members, quorum %d): %s at seq %d\n",
			c.advertise, len(members), len(members)/2+1, st.Persistence.Dir, st.Persistence.Seq)
		agent.Start()
	} else if c.replicateFrom != "" {
		// A follower is a peer that runs no election. A partitioned one
		// fetches just its slice of the primary's snapshot when it needs
		// a transfer — the rebalance transfer path. The WAL tail stays
		// unfiltered; replay skips out-of-slice ops locally.
		s, err := cqads.OpenPeer(opts)
		if err != nil {
			log.Fatal(err)
		}
		sys = s
		snapshotQuery := ""
		if c.partition != "" {
			snapshotQuery = "partition=" + slice.String()
		}
		f, err := replica.Attach(sys, replica.Config{
			Primary:       strings.TrimRight(c.replicateFrom, "/"),
			SnapshotQuery: snapshotQuery,
		})
		if err != nil {
			log.Fatal(err)
		}
		if sys.AppliedSeq() == 0 {
			// A fresh directory takes its baseline from the primary
			// before serving, so a follower hosting a domain the
			// primary lacks is refused here instead of answering from
			// its own seed.
			if _, err := f.SyncOnce(context.Background()); err != nil {
				log.Fatalf("follower of %s: %v", c.replicateFrom, err)
			}
		}
		follower = f
		webOpts.Promoter = f
		st := sys.Status()
		fmt.Printf("follower of %s: %s at seq %d\n", c.replicateFrom, st.Persistence.Dir, st.Replication.AppliedSeq)
		f.Start()
	} else {
		s, err := cqads.Open(opts)
		if err != nil {
			log.Fatal(err)
		}
		sys = s
		if c.dataDir != "" {
			st := sys.Status()
			fmt.Printf("durable store: %s (seq %d, checkpoint %d) — serving replication at /api/repl\n",
				st.Persistence.Dir, st.Persistence.Seq, st.Persistence.CheckpointSeq)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if c.ingest > 0 {
		go runIngest(ctx, sys, c.seed, c.ingest, c.expire)
		fmt.Printf("live ingestion: one ad per %v", c.ingest)
		if c.expire > 0 {
			fmt.Printf(", expiry per %v", c.expire)
		}
		fmt.Println()
	}

	srv := &http.Server{Addr: c.addr, Handler: webui.NewServerWith(sys, webOpts)}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("CQAds web UI listening on %s\n", c.addr)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		if agent != nil {
			agent.Close()
		}
		if follower != nil {
			follower.Close()
		}
		sys.Close()
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills
	fmt.Println("shutting down: draining requests, checkpointing")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if agent != nil {
		agent.Close() // stop electing and tailing before the store goes away
	}
	if follower != nil {
		follower.Close() // stop tailing before the store goes away
	}
	// The final checkpoint: a restart from -data replays an empty WAL.
	if err := sys.Close(); err != nil {
		log.Fatalf("close: %v", err)
	}
}

// ingested tracks one live ad posted by the background writer.
type ingested struct {
	domain string
	id     sqldb.RowID
}

// runIngest is the background writer: every interval it generates one
// ad for the next domain in rotation and inserts it into the running
// system; when expiry is enabled, ads are deleted oldest-first on
// their own cadence, keeping the live-ingested set bounded. The loop
// stops when ctx is cancelled (shutdown), before the store closes.
func runIngest(ctx context.Context, sys *cqads.System, seed int64, interval, expiry time.Duration) {
	gen := adsgen.NewGenerator(seed ^ 0x1ee7)
	domains := sys.Domains()
	var queue []ingested
	insert := time.NewTicker(interval)
	defer insert.Stop()
	var expireC <-chan time.Time
	if expiry > 0 {
		t := time.NewTicker(expiry)
		defer t.Stop()
		expireC = t.C
	}
	for i := 0; ; {
		select {
		case <-ctx.Done():
			return
		case <-insert.C:
			domain := domains[i%len(domains)]
			i++
			ad := gen.Generate(schema.ByName(domain), 1)[0]
			id, err := sys.InsertAd(domain, ad)
			if err != nil {
				log.Printf("ingest: %s: %v", domain, err)
				continue
			}
			queue = append(queue, ingested{domain: domain, id: id})
			log.Printf("ingest: posted ad %d to %s (%d live ingested)", id, domain, len(queue))
		case <-expireC:
			if len(queue) == 0 {
				continue
			}
			old := queue[0]
			queue = queue[1:]
			if err := sys.DeleteAd(old.domain, old.id); err != nil {
				log.Printf("expire: %s/%d: %v", old.domain, old.id, err)
				continue
			}
			log.Printf("expire: removed ad %d from %s (%d live ingested)", old.id, old.domain, len(queue))
		}
	}
}
