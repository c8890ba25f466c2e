package a

import "sync"

// Store hands out read views: View holds mu for its callback, and
// Snapshot's methods read the guarded fields without locking. A view
// may carry state of its own after the field that points to Store.
type Store struct {
	mu   sync.RWMutex
	rows []int // cqads:guarded-by mu
}

type Snapshot struct {
	s     *Store
	reads *int
}

func (s *Store) View(fn func(Snapshot)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(Snapshot{s: s})
}

func (s *Store) Len() (n int) {
	s.View(func(Snapshot) { n = len(s.rows) })
	return n
}

func (v Snapshot) At(i int) int { return v.s.rows[i] }

func (v Snapshot) Clear() {
	v.s.rows = nil // want `write to Store.rows \(guarded by "mu"\) under a read view`
}

// A view method, a literal passed to View and a function taking a view
// all run under the read lock: no Store method may be called there.
func (v Snapshot) Count() int {
	return v.s.Len() // want `Store.Len called under a read view of Store`
}

func useView(s *Store) (n int) {
	s.View(func(v Snapshot) {
		n = v.At(0) + s.Len()     // want `Store.Len called under a read view`
		s.View(func(Snapshot) {}) // want `Store.View called under a read view`
	})
	return n
}

func sum(v Snapshot, s *Store) int {
	return v.At(0) + s.Len() // want `Store.Len called under a read view`
}

func outside(s *Store) int {
	return len(s.rows) // want `Store.rows is guarded by "mu" but accessed without holding it`
}
