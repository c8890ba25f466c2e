// Package plan caches compiled streaming-query plans keyed on the
// question's tagged shape. The CQAds workload is template-heavy —
// millions of users phrase the same few hundred question shapes per
// domain, differing only in literals — so a plan compiled once per
// (domain, expression skeleton) pair serves the whole template: the
// executor re-binds each statement's literals into the cached shape
// at run time (sql.Plan.Run). A plan is a function of the table's
// schema and the statement's shape only — the paper fixes the
// evaluation order (Sec. 4.3: Type I, then II, then III) and the
// planner reads it off the statement — so an entry never goes stale:
// ingest moves table contents, not schemas, and the only way out of
// the cache is LRU eviction. Hit/miss counters feed internal/metrics
// for the /api/status payload.
package plan

import (
	"container/list"
	"strings"
	"sync"

	"repro/internal/metrics/telemetry"
	"repro/internal/sql"
	"repro/internal/sqldb"
)

// Plan is the compiled streaming execution plan (see sql.Compile).
type Plan = sql.Plan

// Compile compiles a SELECT into a streaming plan without touching
// any cache.
func Compile(db *sqldb.DB, sel *sql.Select) (*Plan, error) {
	return sql.Compile(db, sel)
}

// Key canonicalizes a statement into its cache key: the domain, the
// table, the WHERE skeleton with literals stripped to typed
// placeholders (?n / ?s), and the ORDER BY column. LIMIT is excluded
// — it binds at run time and never changes the plan. Two statements
// share a key exactly when one compiled plan fits both.
func Key(domain string, sel *sql.Select) string {
	var sb strings.Builder
	sb.WriteString(domain)
	sb.WriteByte('|')
	sb.WriteString(sel.Table)
	sb.WriteByte('|')
	writeShape(&sb, sel.Where)
	sb.WriteByte('|')
	sb.WriteString(sel.OrderBy)
	if sel.Desc {
		sb.WriteString(" desc")
	}
	return sb.String()
}

func writeShape(sb *strings.Builder, e sql.Expr) {
	switch x := e.(type) {
	case nil:
		sb.WriteByte('-')
	case *sql.Compare:
		sb.WriteString(x.Column)
		sb.WriteString(string(x.Op))
		if x.Value.IsNumber() {
			sb.WriteString("?n")
		} else {
			sb.WriteString("?s")
		}
	case *sql.Between:
		sb.WriteString("btw(")
		sb.WriteString(x.Column)
		sb.WriteByte(')')
	case *sql.And:
		sb.WriteString("and(")
		for i, op := range x.Operands {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeShape(sb, op)
		}
		sb.WriteByte(')')
	case *sql.Or:
		sb.WriteString("or(")
		for i, op := range x.Operands {
			if i > 0 {
				sb.WriteByte(',')
			}
			writeShape(sb, op)
		}
		sb.WriteByte(')')
	case *sql.Not:
		sb.WriteString("not(")
		writeShape(sb, x.Operand)
		sb.WriteByte(')')
	default:
		// Unknown node: make the key unique so it never collides.
		sb.WriteString("opaque")
	}
}

// Cache is a bounded LRU of compiled plans keyed by Key. It is safe
// for concurrent use; compilation happens outside the lock, so a
// slow compile never stalls concurrent lookups.
type Cache struct {
	mu     sync.Mutex
	cap    int
	lru    *list.List // front = most recently used
	byKey  map[string]*list.Element
	hits   int64
	misses int64
}

type entry struct {
	key  string
	plan *sql.Plan
}

// DefaultCapacity bounds a cache built with NewCache(0). A few
// hundred shapes per domain times eight domains fits comfortably.
const DefaultCapacity = 4096

// NewCache builds a cache holding at most capacity plans (0 means
// DefaultCapacity).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		cap:   capacity,
		lru:   list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// Get returns the compiled plan for sel's shape, compiling and
// caching it on a miss. The returned plan is immutable and safe for
// concurrent Run calls.
func (c *Cache) Get(db *sqldb.DB, domain string, sel *sql.Select) (*sql.Plan, error) {
	key := Key(domain, sel)
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		p := el.Value.(*entry).plan
		c.mu.Unlock()
		telemetry.Plan.Hits.Add(1)
		return p, nil
	}
	c.misses++
	c.mu.Unlock()
	telemetry.Plan.Misses.Add(1)
	p, err := sql.Compile(db, sel)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if el, exists := c.byKey[key]; exists {
		// A concurrent Get for the same shape beat us; replace.
		c.lru.Remove(el)
		delete(c.byKey, key)
	}
	c.byKey[key] = c.lru.PushFront(&entry{key: key, plan: p})
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.byKey, back.Value.(*entry).key)
	}
	size := len(c.byKey)
	c.mu.Unlock()
	telemetry.Plan.Size.Set(int64(size))
	return p, nil
}

// Contains reports whether a plan is cached for the shape, without
// bumping counters or recency — the EXPLAIN panel's hit/miss preview.
func (c *Cache) Contains(domain string, sel *sql.Select) bool {
	key := Key(domain, sel)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byKey[key]
	return ok
}

// Stats returns this cache's lookup tallies and current size. The
// process-wide aggregates live in telemetry.Plan.
func (c *Cache) Stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.byKey)
}
