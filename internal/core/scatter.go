package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/sqldb"
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
// produced. A scatter part and a monolith ask are computed by the same
// function, answerIn (system.go); a ScatterAnswer's first six fields
// are core.Answer's, and only the demotion ranking is its own.

// ScatterAnswer is one answer inside a ScatterPart. Its first six
// fields are core.Answer's, in wire order; the last three are the
// demotion ranking. The record payload is generic: the partition side
// carries read-only row views (sqldb.Row), core.Answer's Record; the
// front tier, merging decoded JSON, carries each record as the raw
// JSON object the partition encoded (json.RawMessage) and never looks
// inside it.
type ScatterAnswer[P any] struct {
	// ID is core.Answer's ID, the ad's RowID — the cluster-wide ad key.
	ID int64 `json:"id"`
	// Exact is core.Answer's Exact: a full match.
	Exact bool `json:"exact"`
	// RankSim, DroppedCond and SimilarityUsed are core.Answer's
	// ranking state.
	RankSim        float64 `json:"rank_sim"`
	DroppedCond    int     `json:"dropped_cond"`
	SimilarityUsed string  `json:"similarity_used,omitempty"`
	// Record is core.Answer's Record, the ad's column → value payload.
	Record P `json:"record"`
	// DemoteRankSim/DemoteDropped/DemoteSimilarityUsed are the ranking
	// an exact answer of a superlative question falls back to when the
	// merge finds a better extreme on another partition: the answer
	// matched every condition locally but is not globally extreme, so
	// it re-enters the partial pool with exactly the Rank_Sim score the
	// monolith would have given it. Only populated on exact answers of
	// superlative scatter parts with at least one condition.
	// DemoteDropped is -1 on an exact answer that the relaxation does
	// not admit (it fully matches only single-condition OR groups and
	// nearly matches no other group): the monolith would not rank it,
	// so the merge drops it instead.
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
	_, in, sel := s.understand(domain, tbl.Schema(), question)
	out := &ScatterResult{
		Domain:         domain,
		Interpretation: in.String(),
		MaxAnswers:     s.maxAnswers,
		Answers:        []ScatterAnswer[sqldb.Row]{},
	}
	if sel == nil {
		// Contradiction or nothing recognized: every partition returns
		// the same empty part.
		return out, nil
	}
	p := part{merged: true}
	if !s.slice.Load().SubsetOf(req) {
		p.keep = func(id sqldb.RowID) bool { return req.ContainsKey(uint64(id)) }
	}
	out.SQL = sel.SQL()
	out.PartialsEligible = in.ConditionCount() > 0
	if in.Superlative != nil {
		out.Superlative = true
		out.Desc = in.Superlative.Descending
	}
	tbl.View(func(v sqldb.View) {
		out.Answers, out.ExactCount, out.Extreme, out.HasExtreme, err = answerIn(s, v, sel, in, p, asScatterAnswer)
	})
	if err != nil {
		return nil, fmt.Errorf("core: executing %q: %w", out.SQL, err)
	}
	return out, nil
}

// asScatterAnswer is answerIn's answer constructor for a scatter part:
// core.Answer's six fields and the demotion ranking.
func asScatterAnswer(a Answer, d demotion) ScatterAnswer[sqldb.Row] {
	return ScatterAnswer[sqldb.Row]{
		ID:                   int64(a.ID),
		Exact:                a.Exact,
		RankSim:              a.RankSim,
		DroppedCond:          a.DroppedCond,
		SimilarityUsed:       a.SimilarityUsed,
		Record:               a.Record,
		DemoteRankSim:        d.rankSim,
		DemoteDropped:        d.dropped,
		DemoteSimilarityUsed: d.similarityUsed,
	}
}
