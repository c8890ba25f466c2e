package partition

import "testing"

func TestWhole(t *testing.T) {
	w := Whole()
	if !w.IsWhole() {
		t.Fatal("Whole is not whole")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 1000; key++ {
		if !w.ContainsKey(key) {
			t.Fatalf("Whole does not contain key %d", key)
		}
	}
	if got := w.String(); got != "h0/1" {
		t.Fatalf("Whole renders %q", got)
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		s  Slice
		ok bool
	}{
		{Slice{0, 1}, true},
		{Slice{0, 2}, true},
		{Slice{1, 2}, true},
		{Slice{3, 4}, true},
		{Slice{7, 8}, true},
		{Slice{0, 0}, false},  // zero count
		{Slice{0, 3}, false},  // not a power of two
		{Slice{2, 2}, false},  // index out of range
		{Slice{4, 4}, false},  // index out of range
		{Slice{0, 12}, false}, // not a power of two
	} {
		err := tc.s.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", tc.s, err, tc.ok)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []Slice{{0, 1}, {0, 2}, {1, 2}, {0, 4}, {3, 4}, {5, 8}, {15, 16}} {
		got, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("Parse(%q) = %+v, want %+v", s.String(), got, s)
		}
	}
}

func TestParseRejects(t *testing.T) {
	for _, in := range []string{
		"", "h", "h0", "0/1", "h0/3", "h2/2", "hx/2", "h0/y",
		"h-1/2", "h0/0", "h1/", "h/2", "h0/2extra ", " h0/2",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

func TestDisjointCover(t *testing.T) {
	// For any power-of-two count, the slices 0..P-1 partition the key
	// space: every key is in exactly one.
	for _, count := range []uint32{1, 2, 4, 8, 16} {
		for key := uint64(0); key < 4096; key++ {
			owners := 0
			for idx := uint32(0); idx < count; idx++ {
				if (Slice{idx, count}).ContainsKey(key) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("key %d has %d owners at count %d", key, owners, count)
			}
		}
	}
}

func TestSplitStability(t *testing.T) {
	// Doubling stability: a key in (i, P) lands in exactly one of the
	// two children (i, 2P), (i+P, 2P) — and in no other slice at 2P.
	for _, count := range []uint32{1, 2, 4, 8} {
		for idx := uint32(0); idx < count; idx++ {
			s := Slice{idx, count}
			lo, hi := s.Split()
			if !lo.SubsetOf(s) || !hi.SubsetOf(s) {
				t.Fatalf("children of %v are not subsets: %v %v", s, lo, hi)
			}
			for key := uint64(0); key < 2048; key++ {
				if !s.ContainsKey(key) {
					if lo.ContainsKey(key) || hi.ContainsKey(key) {
						t.Fatalf("key %d outside %v but inside a child", key, s)
					}
					continue
				}
				inLo, inHi := lo.ContainsKey(key), hi.ContainsKey(key)
				if inLo == inHi {
					t.Fatalf("key %d in %v: lo=%v hi=%v", key, s, inLo, inHi)
				}
			}
		}
	}
}

func TestSubsetOf(t *testing.T) {
	whole := Whole()
	h02 := Slice{0, 2}
	h12 := Slice{1, 2}
	h04 := Slice{0, 4}
	h24 := Slice{2, 4}
	h34 := Slice{3, 4}
	for _, tc := range []struct {
		s, t Slice
		want bool
	}{
		{h02, whole, true},
		{h04, whole, true},
		{h04, h02, true},
		{h24, h02, true},
		{h34, h12, true},
		{h34, h02, false},
		{h02, h04, false}, // coarser is never a subset of finer
		{h02, h12, false},
		{whole, h02, false},
		{h02, h02, true},
	} {
		if got := tc.s.SubsetOf(tc.t); got != tc.want {
			t.Errorf("%v.SubsetOf(%v) = %v, want %v", tc.s, tc.t, got, tc.want)
		}
	}
	if !h02.Overlaps(h24) || h02.Overlaps(h34) || !whole.Overlaps(h34) {
		t.Error("Overlaps disagrees with SubsetOf composition")
	}
}

func TestKeyHashSpreads(t *testing.T) {
	// Dense small RowIDs must not collapse onto one partition: across
	// the first 4096 keys every 8-way slice should own a decent share.
	const n = 4096
	counts := make([]int, 8)
	for key := uint64(0); key < n; key++ {
		counts[KeyHash(key)&7]++
	}
	for idx, c := range counts {
		if c < n/16 || c > n/4 {
			t.Fatalf("partition %d owns %d of %d keys — hash is not spreading", idx, c, n)
		}
	}
}
