// Package topk provides a bounded top-K selector: it retains the K
// smallest items of a stream under a strict ordering, in O(log K) per
// item and O(K) space. The answer pipeline uses it to pick the
// MaxAnswers best-ranked candidates (the paper's 30-answer cutoff,
// Sec. 4.3.1) without materializing and sorting the whole candidate
// pool, which for single-condition questions is the entire table.
package topk

// Selector accumulates items and retains the K that order first under
// less. less must be a strict weak ordering; when it is a total order
// (e.g. score descending with a unique-ID tie-break) the retained set
// and its sorted output are deterministic and identical to sorting the
// full stream and truncating.
type Selector[T any] struct {
	less func(a, b T) bool
	k    int
	// heap is a max-heap under less: the root is the worst retained
	// item, so a full selector replaces the root whenever a better
	// item arrives.
	heap []T
}

// New returns a selector retaining the k items that order first under
// less. A k <= 0 selector retains nothing.
func New[T any](k int, less func(a, b T) bool) *Selector[T] {
	s := &Selector[T]{less: less, k: k}
	if k > 0 {
		s.heap = make([]T, 0, k)
	}
	return s
}

// Len returns the number of retained items (at most K).
func (s *Selector[T]) Len() int { return len(s.heap) }

// Worst returns the worst retained item under less — the one a better
// Push would evict once the selector is full — and false when nothing
// is retained. A caller streaming items whose order it can bound stops
// once Len() == K and nothing still to come can order before Worst.
func (s *Selector[T]) Worst() (T, bool) {
	if len(s.heap) == 0 {
		var zero T
		return zero, false
	}
	return s.heap[0], true
}

// Push offers one item to the selector.
func (s *Selector[T]) Push(v T) {
	if s.k <= 0 {
		return
	}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, v)
		s.siftUp(len(s.heap) - 1)
		return
	}
	if s.less(v, s.heap[0]) {
		s.heap[0] = v
		s.siftDown(0)
	}
}

// Sorted drains the selector and returns the retained items ordered
// best-first under less. The selector is empty afterwards.
func (s *Selector[T]) Sorted() []T {
	out := make([]T, len(s.heap))
	for i := len(s.heap) - 1; i >= 0; i-- {
		out[i] = s.heap[0]
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		s.siftDown(0)
	}
	return out
}

// siftUp restores the max-heap property from leaf i upward ("max"
// meaning the worst item under less wins).
func (s *Selector[T]) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(s.heap[parent], s.heap[i]) {
			return
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

// siftDown restores the max-heap property from index i downward.
func (s *Selector[T]) siftDown(i int) {
	n := len(s.heap)
	for {
		worst := i
		if l := 2*i + 1; l < n && s.less(s.heap[worst], s.heap[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && s.less(s.heap[worst], s.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		s.heap[i], s.heap[worst] = s.heap[worst], s.heap[i]
		i = worst
	}
}
