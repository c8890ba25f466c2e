package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"

	"repro/internal/adsgen"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/sqldb"
)

// cannedQuestion is the seed-independent question that ends a timed
// set-up ("first verified answer"). It routes to cars, so on front_ask
// it crosses the router, both partitions and the merge.
const cannedQuestion = "Find Honda Accord blue less than 15,000 dollars"

// inputs is everything a run feeds the system, derived from the seed
// alone.
type inputs struct {
	// paths are the request paths ("/api/ask?q=...") in visiting order:
	// the generated pool, shuffled by the seed.
	paths []string
	// texts are the same questions unescaped, for in-process calls.
	texts []string
	// sample is how many leading entries the verification pass and the
	// traced pass replay.
	sample int
}

// questionCounts is the per-domain split of a pool: the paper's
// 80 cars + 570 others for paperQuestions (as shardtest.Workload and
// experiments.NewEnv split it), an even split otherwise.
func questionCounts(pool int) []int {
	n := len(schema.DomainNames)
	counts := make([]int, n)
	if pool != paperQuestions {
		for i := range counts {
			counts[i] = pool / n
		}
		return counts
	}
	others := paperQuestions - paperCars
	per, extra := others/(n-1), others%(n-1)
	for i, d := range schema.DomainNames {
		switch {
		case d == partitionedDomain:
			counts[i] = paperCars
		case i <= extra:
			counts[i] = per + 1
		default:
			counts[i] = per
		}
	}
	return counts
}

// tables resolves a domain to the populated table questions are
// sampled from — a monolith's, so every ad a question mentions exists
// in the system under test.
type tables interface {
	TableForDomain(domain string) (*sqldb.Table, bool)
}

// makeInputs generates spec's question pool from db with the generator
// seeds shardtest.Workload uses (seed+404+domain index), then shuffles
// it by the seed.
func makeInputs(spec workloadSpec, seed int64, db tables) (*inputs, error) {
	var texts []string
	for i, n := range questionCounts(spec.Pool) {
		d := schema.DomainNames[i]
		tbl, ok := db.TableForDomain(d)
		if !ok {
			return nil, fmt.Errorf("no table for domain %q", d)
		}
		gen := questions.NewGenerator(tbl, seed+404+int64(i))
		for _, q := range gen.Generate(n, questions.DefaultOptions()) {
			texts = append(texts, q.Text)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(texts), func(i, j int) {
		texts[i], texts[j] = texts[j], texts[i]
	})
	in := &inputs{texts: texts, sample: spec.Sample, paths: make([]string, len(texts))}
	for i, q := range texts {
		in.paths[i] = askPath(q)
	}
	return in, nil
}

func askPath(question string) string {
	return "/api/ask?" + url.Values{"q": {question}}.Encode()
}

// writeBodiesPerClient is how many distinct ads each client cycles
// through; with deleteLag ads outstanding no body is live twice.
const writeBodiesPerClient = 512

// writeBody is one pre-encoded POST /api/ads request.
type writeBody struct {
	domain string
	body   []byte
	values map[string]sqldb.Value // the same ad for in-process InsertAd
}

// makeWriteBodies generates client's ads with adsgen, domains
// round-robin, deterministically in (seed, client).
func makeWriteBodies(seed int64, client int) []writeBody {
	gen := adsgen.NewGenerator(seed ^ 0x10ad + int64(client)*104729)
	out := make([]writeBody, writeBodiesPerClient)
	for i := range out {
		d := schema.DomainNames[(i+client)%len(schema.DomainNames)]
		ad := gen.Generate(schema.ByName(d), 1)[0]
		rec := make(map[string]any, len(ad))
		for col, v := range ad {
			switch {
			case v.IsNumber():
				rec[col] = v.Num()
			case v.IsString():
				rec[col] = v.Str()
			}
		}
		body, err := json.Marshal(map[string]any{"domain": d, "record": rec})
		if err != nil {
			panic(err) // strings and floats only: cannot fail
		}
		out[i] = writeBody{domain: d, body: body, values: ad}
	}
	return out
}
