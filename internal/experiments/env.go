// Package experiments regenerates every table and figure of the
// paper's evaluation (Sec. 5) against the synthetic substrates. Each
// experiment returns a printable report; cmd/experiments renders them
// and EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"

	"repro/internal/adsgen"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/judge"
	"repro/internal/qlog"
	"repro/internal/questions"
	"repro/internal/schema"
	"repro/internal/sqldb"
	"repro/internal/text"
	"repro/internal/wsmatrix"
)

// CarsQuestionCount and DomainQuestionTotal mirror the paper's survey
// sizes: 80 car-ads responses plus 570 domain-specific responses
// (650 total, Sec. 5.1).
const (
	CarsQuestionCount   = 80
	DomainQuestionTotal = 570
	TrainPerDomain      = 200
)

// Env bundles every artifact the experiments share: the populated
// database, similarity matrices, trained classifier, CQAds system and
// the generated test questions.
type Env struct {
	Seed         int64
	AdsPerDomain int
	DB           *sqldb.DB
	Schemas      map[string]*schema.Schema
	Sims         map[string]*qlog.Simulator
	TI           map[string]*qlog.TIMatrix
	WS           *wsmatrix.Matrix
	Cls          *classify.JBBSM
	System       *core.System
	// Tests holds the 650 survey questions keyed by domain.
	Tests map[string][]questions.Question
	// Appraiser is the shared relevance-judgment oracle.
	Appraiser *judge.Appraiser
}

// NewEnv builds the full experimental environment: adsPerDomain ads
// per table, query logs, matrices, classifier trained on generated
// questions, and the 650-question test set.
func NewEnv(seed int64, adsPerDomain int) (*Env, error) {
	db, err := adsgen.PopulateAll(seed, adsPerDomain)
	if err != nil {
		return nil, fmt.Errorf("experiments: populating ads: %w", err)
	}
	env := &Env{
		Seed:         seed,
		AdsPerDomain: adsPerDomain,
		DB:           db,
		Schemas:      make(map[string]*schema.Schema),
		Sims:         make(map[string]*qlog.Simulator),
		TI:           make(map[string]*qlog.TIMatrix),
		Tests:        make(map[string][]questions.Question),
	}
	var schemas []*schema.Schema
	for _, d := range schema.DomainNames {
		s := schema.ByName(d)
		env.Schemas[d] = s
		schemas = append(schemas, s)
		sim := qlog.NewSimulator(s, seed+101)
		env.Sims[d] = sim
		env.TI[d] = qlog.BuildTIMatrix(sim.Simulate(d, 500))
	}
	env.WS = wsmatrix.BuildForDomains(schemas, 40, seed+202)

	// Train the classifier on a disjoint generated question sample.
	env.Cls = classify.NewJBBSM()
	for _, d := range schema.DomainNames {
		tbl, _ := db.TableForDomain(d)
		gen := questions.NewGenerator(tbl, seed+303+int64(len(d)))
		train := gen.Generate(TrainPerDomain, questions.DefaultOptions())
		docs := make([][]string, len(train))
		for i := range train {
			docs[i] = classifyTokens(train[i].Text)
		}
		env.Cls.Train(d, docs)
	}

	env.System, err = core.New(core.Config{
		DB:         db,
		Classifier: env.Cls,
		TI:         env.TI,
		WS:         env.WS,
	})
	if err != nil {
		return nil, err
	}

	// The 650-question test set: 80 cars + 570 across the other
	// seven domains.
	perOther := DomainQuestionTotal / (len(schema.DomainNames) - 1)
	extra := DomainQuestionTotal % (len(schema.DomainNames) - 1)
	for i, d := range schema.DomainNames {
		n := perOther
		if d == "cars" {
			n = CarsQuestionCount
		} else if i <= extra {
			n++
		}
		tbl, _ := db.TableForDomain(d)
		gen := questions.NewGenerator(tbl, seed+404+int64(i))
		env.Tests[d] = gen.Generate(n, questions.DefaultOptions())
	}

	env.Appraiser = judge.NewAppraiser(seed+505, env.Sims, env.Schemas)
	return env, nil
}

// TotalQuestions returns the size of the test set.
func (e *Env) TotalQuestions() int {
	n := 0
	for _, qs := range e.Tests {
		n += len(qs)
	}
	return n
}

func classifyTokens(q string) []string {
	return text.RemoveStopwords(text.Words(q))
}
