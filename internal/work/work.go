// Package work counts the work an ask does in units no machine can
// blur: the ids it copies and the cells it reads (Fagin, Lotem and
// Naor cost top-k algorithms by their sorted and random accesses), the
// relaxation tally's increments, the candidates it scores and the
// similarities it evaluates. Wall-clock time on a shared box spreads by
// tens of percent between runs; these counts move only when the code
// does more or less work.
//
// A galloping search of a hash posting (sqldb.View.IntersectMatch)
// reads no row, so it counts no cell: each id it tests against a
// posting is one sorted access, counted with the ids copied.
//
// An ask counts into a Counts in its own scratch, with local counters
// added once per call of the counting function, and flushes it into
// its System's Sink once, when the ask ends. Nothing counts per row
// into shared memory. The answer path never reads a count: only tests
// call Sink.Read, and cqadslint's workcount rule reports any other
// call.
package work

import "sync/atomic"

// Counts is one ask's work. Its methods accept a nil receiver and then
// count nothing, so a read outside an ask needs no branch of its own.
type Counts struct {
	postings, cells, tally, scored, sims int64
}

// AddPostings counts n sorted accesses: ids copied from an index
// posting or from the live slots, or tested against a posting by a
// galloping search.
func (c *Counts) AddPostings(n int) {
	if c != nil {
		c.postings += int64(n)
	}
}

// AddCells counts n stored cells read (random accesses): residual
// checks, similarity reads, extreme-run reads and the rows a scan
// tests.
func (c *Counts) AddCells(n int) {
	if c != nil {
		c.cells += int64(n)
	}
}

// AddTally counts n increments of the relaxation tally.
func (c *Counts) AddTally(n int) {
	if c != nil {
		c.tally += int64(n)
	}
}

// AddScored counts n candidates scored by Rank_Sim, each reading
// conds cells and evaluating conds similarities.
func (c *Counts) AddScored(n, conds int) {
	if c != nil {
		c.scored += int64(n)
		c.cells += int64(n * conds)
		c.sims += int64(n * conds)
	}
}

// Sink sums the Counts of every ask flushed into it. It is safe for
// concurrent use.
type Sink struct {
	postings, cells, tally, scored, sims atomic.Int64
}

// Flush adds c to the sink and zeroes c.
func (s *Sink) Flush(c *Counts) {
	s.postings.Add(c.postings)
	s.cells.Add(c.cells)
	s.tally.Add(c.tally)
	s.scored.Add(c.scored)
	s.sims.Add(c.sims)
	*c = Counts{}
}

// Totals is a sink's sum of the work of the asks flushed into it.
type Totals struct {
	// Postings is the number of sorted accesses: ids copied from index
	// postings and from the live slots, and ids tested against a
	// posting.
	Postings int64
	// Cells is the number of stored cells read.
	Cells int64
	// Tally is the number of relaxation tally increments.
	Tally int64
	// Scored is the number of candidates scored by Rank_Sim.
	Scored int64
	// Sims is the number of similarity evaluations.
	Sims int64
}

// Read returns the sink's totals. Only tests read them (cqadslint's
// workcount rule): no answer may depend on how much work computing it
// took.
func (s *Sink) Read() Totals {
	return Totals{
		Postings: s.postings.Load(),
		Cells:    s.cells.Load(),
		Tally:    s.tally.Load(),
		Scored:   s.scored.Load(),
		Sims:     s.sims.Load(),
	}
}
