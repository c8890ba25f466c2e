package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/cqads"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/shard"
	"repro/internal/webui"
)

// backend is one cqads System served by a webui server on a real
// loopback listener.
type backend struct {
	sys     *cqads.System
	handler *webui.Server
	srv     *httptest.Server
}

func startBackend(opts cqads.Options) (*backend, error) {
	sys, err := cqads.Open(opts)
	if err != nil {
		return nil, err
	}
	h := webui.NewServer(sys)
	return &backend{sys: sys, handler: h, srv: httptest.NewServer(h)}, nil
}

func (b *backend) close() {
	b.srv.Close()
	_ = b.sys.Close()
}

// topology is one system under test: the URL the load enters at, the
// backends behind it, and (front_ask only) the router and front server.
type topology struct {
	spec     workloadSpec
	opts     cqads.Options
	entry    string
	backends []*backend
	byURL    map[string]*backend

	cls    *cqads.QuestionClassifier
	router *shard.Router
	front  *httptest.Server

	dataDir string // durable workloads: removed on close
}

// partitionedDomain is the domain front_ask hash-splits two ways; the
// other seven share one shard.
const partitionedDomain = "cars"

// build constructs the workload's topology in-process, the way
// internal/shard/shardtest does for the equivalence harness: cqads.Open
// for every System, webui.NewServer on a loopback listener for every
// backend, shard.New + shard.NewServer for the front tier. scratch is
// where a durable workload puts its data directory.
func build(spec workloadSpec, seed int64, scratch string) (*topology, error) {
	t := &topology{
		spec:  spec,
		opts:  cqads.Options{Seed: seed, AdsPerDomain: spec.Ads},
		byURL: make(map[string]*backend),
	}
	ok := false
	defer func() {
		if !ok {
			t.close()
		}
	}()
	add := func(o cqads.Options) (*backend, error) {
		b, err := startBackend(o)
		if err != nil {
			return nil, err
		}
		t.backends = append(t.backends, b)
		t.byURL[b.srv.URL] = b
		return b, nil
	}
	if !spec.Front {
		o := t.opts
		if spec.Durable {
			dir, err := os.MkdirTemp(scratch, "data-")
			if err != nil {
				return nil, err
			}
			t.dataDir = dir
			o.DataDir = filepath.Join(dir, "node")
		}
		b, err := add(o)
		if err != nil {
			return nil, err
		}
		t.entry = b.srv.URL
		ok = true
		return t, nil
	}

	m := shard.Map{}
	const parts = 2
	for i := uint32(0); i < parts; i++ {
		o := t.opts
		o.Domains = []string{partitionedDomain}
		o.Partitions = parts
		o.PartitionIndex = i
		b, err := add(o)
		if err != nil {
			return nil, fmt.Errorf("opening partition h%d/%d: %w", i, parts, err)
		}
		m[partitionedDomain] = append(m[partitionedDomain], shard.Group{
			Slice:   partition.Slice{Index: i, Count: parts},
			Members: []string{b.srv.URL},
		})
	}
	o := t.opts
	for _, d := range schema.DomainNames {
		if d != partitionedDomain {
			o.Domains = append(o.Domains, d)
		}
	}
	rest, err := add(o)
	if err != nil {
		return nil, fmt.Errorf("opening rest shard: %w", err)
	}
	for _, d := range o.Domains {
		m[d] = []shard.Group{{Members: []string{rest.srv.URL}}}
	}
	if t.cls, err = cqads.NewQuestionClassifier(t.opts); err != nil {
		return nil, err
	}
	if t.router, err = shard.New(shard.Config{Map: m, Classifier: t.cls}); err != nil {
		return nil, err
	}
	t.front = httptest.NewServer(shard.NewServer(t.router))
	t.entry = t.front.URL
	ok = true
	return t, nil
}

// monolith is the single backend of a non-front topology.
func (t *topology) monolith() *backend { return t.backends[0] }

// close tears everything down without checkpointing more than
// System.Close does; safe on a partially built topology.
func (t *topology) close() {
	if t.front != nil {
		t.front.Close()
	}
	if t.router != nil {
		t.router.Close()
	}
	for _, b := range t.backends {
		b.close()
	}
	if t.dataDir != "" {
		_ = os.RemoveAll(t.dataDir)
	}
}
