package sqldb

import (
	"fmt"
	"sort"

	"repro/internal/schema"
)

// DB is a catalog of tables, one per ads domain, mirroring the
// paper's "DB that archives ads in different domains (with a table in
// the DB for each domain)" (Sec. 4.1).
type DB struct {
	tables map[string]*Table // keyed by table name
	domain map[string]*Table // keyed by domain name
}

// NewDB creates an empty database.
func NewDB() *DB {
	return &DB{
		tables: make(map[string]*Table),
		domain: make(map[string]*Table),
	}
}

// CreateTable creates a table for the schema and registers it under
// both its table name and its domain name.
func (db *DB) CreateTable(s *schema.Schema) (*Table, error) {
	if _, exists := db.tables[s.Table]; exists {
		return nil, fmt.Errorf("sqldb: table %q already exists", s.Table)
	}
	t, err := NewTable(s)
	if err != nil {
		return nil, err
	}
	db.tables[s.Table] = t
	db.domain[s.Domain] = t
	return t, nil
}

// Table returns the table with the given relation name.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// TableForDomain returns the table backing the named ads domain.
func (db *DB) TableForDomain(domain string) (*Table, bool) {
	t, ok := db.domain[domain]
	return t, ok
}

// Domains returns the registered domain names, sorted.
func (db *DB) Domains() []string {
	out := make([]string, 0, len(db.domain))
	for name := range db.domain {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
