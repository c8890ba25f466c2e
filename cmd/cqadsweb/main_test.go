package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	const set = "http://127.0.0.1:9101,http://127.0.0.1:9102,http://127.0.0.1:9103"
	const shards = "cars=http://127.0.0.1:9201,csjobs=http://127.0.0.1:9202"
	cases := []struct {
		name string
		args string
		err  string // substring of the expected error; "" accepts
	}{
		// The invocations CI runs must all be accepted.
		{"monolith", "-addr 127.0.0.1:9090 -ads 150", ""},
		{"durable primary", "-addr 127.0.0.1:9090 -ads 150 -data ./data", ""},
		{"follower", "-addr 127.0.0.1:9091 -ads 150 -replicate-from http://127.0.0.1:9090 -data ./f1", ""},
		{"live ingest with expiry", "-addr 127.0.0.1:9090 -ads 150 -data ./data -ingest 25ms -expire 200ms", ""},
		{"shard", "-addr 127.0.0.1:9201 -ads 150 -domains csjobs,furniture -data ./shard2", ""},
		{"front tier", "-addr 127.0.0.1:9200 -ads 150 -shards " + shards, ""},
		{"replica-set peer", "-addr 127.0.0.1:9101 -ads 150 -data ./peer-a -advertise http://127.0.0.1:9101 -replica-set " + set + " -lease 1s", ""},
		{"partition", "-addr 127.0.0.1:9301 -ads 150 -domains cars -partition h0/2 -data ./reb-a", ""},
		{"follower with data", "-replicate-from http://p -data ./d", ""},
		{"partition follower", "-addr 127.0.0.1:9304 -ads 150 -domains cars -partition h3/4 -replicate-from http://127.0.0.1:9302 -data ./reb-t", ""},

		// Every combination a mode would silently ignore is rejected.
		{"expire without ingest", "-data ./data -expire 1s", "requires -ingest"},
		{"negative ingest", "-ingest -1s", "non-negative"},
		{"shards with data", "-shards " + shards + " -data ./d", "-shards runs a corpus-less front tier"},
		{"shards with ingest", "-shards " + shards + " -ingest 1s", "-shards runs a corpus-less front tier"},
		{"shards with expire", "-shards " + shards + " -expire 1s", "-shards runs a corpus-less front tier"},
		{"shards with replicate-from", "-shards " + shards + " -replicate-from http://p", "-shards runs a corpus-less front tier"},
		{"shards with domains", "-shards " + shards + " -domains cars", "-shards runs a corpus-less front tier"},
		{"shards with partition", "-shards " + shards + " -partition h0/2", "-shards runs a corpus-less front tier"},
		{"shards with replica-set", "-shards " + shards + " -replica-set " + set, "-shards runs a corpus-less front tier"},
		{"shards with advertise", "-shards " + shards + " -advertise http://a", "-shards runs a corpus-less front tier"},
		{"shards with lease", "-shards " + shards + " -lease 1s", "-shards runs a corpus-less front tier"},
		{"advertise without replica-set", "-data ./d -advertise http://a", "require -replica-set"},
		{"lease without replica-set", "-data ./d -lease 1s", "require -replica-set"},
		{"replica-set without advertise", "-data ./d -replica-set " + set, "needs -advertise"},
		{"replica-set without data", "-advertise http://a -replica-set " + set, "needs -advertise"},
		{"replica-set with replicate-from", "-data ./d -advertise http://a -replica-set " + set + " -replicate-from http://p", "incompatible with -replicate-from"},
		{"follower without data", "-replicate-from http://p", "-replicate-from needs -data"},
		{"follower with ingest", "-replicate-from http://p -ingest 1s", "-replicate-from is incompatible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("cqadsweb", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			_, err := parseFlags(fs, strings.Fields(tc.args))
			switch {
			case tc.err == "" && err != nil:
				t.Fatalf("%s: unexpected error %v", tc.args, err)
			case tc.err != "" && err == nil:
				t.Fatalf("%s: accepted, want error containing %q", tc.args, tc.err)
			case tc.err != "" && !strings.Contains(err.Error(), tc.err):
				t.Fatalf("%s: error %q, want it to contain %q", tc.args, err, tc.err)
			}
		})
	}
}
