package core

import (
	"fmt"

	"repro/internal/boolean"
	"repro/internal/partition"
	"repro/internal/schema"
	"repro/internal/sqldb"
	"repro/internal/trie"
)

// This file is the partition side of scatter/gather question
// answering. A domain split across hash partitions cannot answer a
// question on any single node: exact matches live on every partition,
// a superlative's extreme is global, and the ranked partial list is a
// global top-K. So the front tier scatters the question to every
// partition, each partition answers over its rows with
// AskInDomainScatter — returning not a finished Result but a
// ScatterPart carrying everything the merge needs (uncapped extreme
// runs, demotion scores for exact answers that may lose the global
// extreme, per-answer ranking state) — and MergeScatter (merge.go)
// folds the parts into the byte-identical answer a monolith would have
// produced.

// ScatterAnswer is one answer inside a ScatterPart. The record payload
// is generic: the partition side carries read-only row views
// (sqldb.Row); the front tier, merging decoded JSON,
// carries each record as the raw JSON object the partition encoded
// (json.RawMessage) and never looks inside it.
type ScatterAnswer[P any] struct {
	// ID is the ad's RowID — the cluster-wide ad key.
	ID int64 `json:"id"`
	// Exact reports a full match (see core.Answer).
	Exact bool `json:"exact"`
	// RankSim, DroppedCond and SimilarityUsed are the answer's ranking
	// state, exactly as core.Answer carries them.
	RankSim        float64 `json:"rank_sim"`
	DroppedCond    int     `json:"dropped_cond"`
	SimilarityUsed string  `json:"similarity_used,omitempty"`
	// Record is the ad's column → value payload.
	Record P `json:"record"`
	// DemoteRankSim/DemoteDropped/DemoteSimilarityUsed are the ranking
	// an exact answer of a superlative question falls back to when the
	// merge finds a better extreme on another partition: the answer
	// matched every condition locally but is not globally extreme, so
	// it re-enters the partial pool with exactly the Rank_Sim score the
	// monolith would have given it. Only populated on exact answers of
	// superlative scatter parts with at least one condition.
	DemoteRankSim        float64 `json:"demote_rank_sim,omitempty"`
	DemoteDropped        int     `json:"demote_dropped,omitempty"`
	DemoteSimilarityUsed string  `json:"demote_similarity_used,omitempty"`
}

// ScatterPart is one partition's contribution to a scattered question:
// the shared interpretation state (identical on every partition, since
// taggers are schema-derived) plus the local answers. For superlative
// questions Answers carries the partition's FULL extreme run — uncapped
// — because only the merge knows the global extreme and the global cap.
type ScatterPart[P any] struct {
	Domain         string `json:"domain"`
	Interpretation string `json:"interpretation"`
	SQL            string `json:"sql"`
	// MaxAnswers is the answering system's cap (the merge re-applies it
	// globally).
	MaxAnswers int `json:"max_answers"`
	// PartialsEligible reports whether the question has at least one
	// condition — only then does the paper's partial-matching strategy
	// apply (a pure superlative has nothing to relax).
	PartialsEligible bool `json:"partials_eligible"`
	// Superlative/Desc describe the question's trailing superlative;
	// HasExtreme/Extreme the local extreme run (HasExtreme false when
	// no local row has a numeric superlative value).
	Superlative bool    `json:"superlative"`
	Desc        bool    `json:"desc"`
	HasExtreme  bool    `json:"has_extreme"`
	Extreme     float64 `json:"extreme"`
	// ExactCount is the number of exact answers leading Answers.
	ExactCount int                `json:"exact_count"`
	Answers    []ScatterAnswer[P] `json:"answers"`
}

// ScatterResult is the partition-side scatter part, carrying read-only
// row views.
type ScatterResult = ScatterPart[sqldb.Row]

// AskInDomainScatter answers a question over this partition's rows for
// a scatter/gather merge. req is the hash slice the front tier is
// addressing: normally a superset of (or equal to) the slice this node
// hosts, in which case every local row qualifies; during a rebalance
// cutover the front may address a narrower slice than the source still
// physically holds, and then the answer set is filtered to req — so
// the moved-out rows are answered by exactly one node regardless of
// how far the source's retirement has progressed.
func (s *System) AskInDomainScatter(domain, question string, req partition.Slice) (*ScatterResult, error) {
	tbl, err := s.hostedTable(domain)
	if err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	tagger := s.taggers[domain]
	sch := tbl.Schema()

	tags := tagger.Tag(question)
	in := s.interpretFor(sch, tags)

	out := &ScatterResult{
		Domain:         domain,
		Interpretation: in.String(),
		MaxAnswers:     s.maxAnswers,
		Answers:        []ScatterAnswer[sqldb.Row]{},
	}
	if in.Empty || in.ConditionCount() == 0 && in.Superlative == nil {
		// Contradiction or nothing recognized: every partition returns
		// the same empty part.
		return out, nil
	}

	var keep func(sqldb.RowID) bool
	if !s.slice.Load().SubsetOf(req) {
		keep = func(id sqldb.RowID) bool { return req.ContainsKey(uint64(id)) }
	}

	sel := BuildSelect(sch, in, s.maxAnswers)
	out.SQL = sel.SQL()
	conds := in.AllConditions()
	out.PartialsEligible = len(conds) > 0
	sim := s.sims[domain]
	exactScore := float64(maxGroupLen(in))

	// Every stage below reads one view of the partition's table, so no
	// write lands between the exact answers and the partial pool.
	tbl.View(func(v sqldb.View) {
		var exactIDs []sqldb.RowID
		if in.Superlative != nil {
			out.Superlative = true
			out.Desc = in.Superlative.Descending
			exactIDs, out.Extreme, out.HasExtreme, err = s.superlativeRun(v, sel, keep, 0)
		} else if keep == nil {
			exactIDs, err = s.execSelect(v, sel)
		} else {
			// The statement's LIMIT applies before the slice filter, so
			// run unlimited, filter, then re-apply the cap.
			unlimited := *sel
			unlimited.Limit = 0
			var ids []sqldb.RowID
			ids, err = s.execSelect(v, &unlimited)
			for _, id := range ids {
				if keep(id) {
					exactIDs = append(exactIDs, id)
					if len(exactIDs) == s.maxAnswers {
						break
					}
				}
			}
		}
		if err != nil {
			return
		}

		// Partial pool: superlative parts always report a full MaxAnswers
		// of partials — demotion can shrink the global exact set below the
		// local one, so the local want cannot be derived from local exacts.
		// Non-superlative parts report MaxAnswers − localExacts: the global
		// exact count is at least the local one, so the global want never
		// exceeds it.
		want := s.maxAnswers
		if in.Superlative == nil {
			want = s.maxAnswers - len(exactIDs)
		}
		n := len(exactIDs)
		if out.PartialsEligible && want > 0 {
			n += want
		}
		out.Answers = make([]ScatterAnswer[sqldb.Row], 0, n)
		var names []string
		if out.Superlative && out.PartialsEligible {
			names = similarityNames(conds)
		}
		for _, id := range exactIDs {
			a := ScatterAnswer[sqldb.Row]{
				ID:          int64(id),
				Exact:       true,
				RankSim:     exactScore,
				DroppedCond: -1,
				Record:      v.Row(id),
			}
			if out.Superlative && out.PartialsEligible {
				// The merge may find a better extreme elsewhere and demote
				// this whole run into the partial pool; score it now, while
				// the row is at hand.
				a.DemoteRankSim, a.DemoteDropped = sim.RowRankSim(a.Record, in.Groups)
				if a.DemoteDropped >= 0 && a.DemoteDropped < len(names) {
					a.DemoteSimilarityUsed = names[a.DemoteDropped]
				}
			}
			out.Answers = append(out.Answers, a)
		}
		out.ExactCount = len(out.Answers)

		if out.PartialsEligible && want > 0 {
			for _, a := range s.partialAnswers(nil, v, in, exactIDs, want, nil, keep) {
				out.Answers = append(out.Answers, ScatterAnswer[sqldb.Row]{
					ID:             int64(a.ID),
					RankSim:        a.RankSim,
					DroppedCond:    a.DroppedCond,
					SimilarityUsed: a.SimilarityUsed,
					Record:         a.Record,
				})
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("core: executing %q: %w", out.SQL, err)
	}
	return out, nil
}

// interpretFor runs the tagging output through the configured
// interpreter and incomplete-question resolution — the shared front of
// AskInDomain and AskInDomainScatter.
func (s *System) interpretFor(sch *schema.Schema, tags []trie.Tag) *boolean.Interpretation {
	var in *boolean.Interpretation
	if s.strict {
		in = boolean.InterpretStrict(sch, tags)
	} else {
		in = boolean.Interpret(sch, tags)
	}
	return ResolveIncomplete(sch, in)
}
