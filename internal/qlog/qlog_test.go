package qlog

import (
	"sort"
	"testing"

	"repro/internal/schema"
)

func carsSim() *Simulator { return NewSimulator(schema.Cars(), 7) }

func TestSimulatorCoversAllTypeIValues(t *testing.T) {
	sim := carsSim()
	s := schema.Cars()
	want := 0
	for _, a := range s.AttrsOfType(schema.TypeI) {
		want += len(a.Values)
	}
	if got := len(sim.Values()); got != want {
		t.Errorf("Values = %d, want %d", got, want)
	}
}

func TestTrueAffinityProperties(t *testing.T) {
	sim := carsSim()
	vals := sim.Values()
	for _, a := range vals {
		if sim.TrueAffinity(a, a) != 1 {
			t.Errorf("self-affinity of %q != 1", a)
		}
		for _, b := range vals {
			aff := sim.TrueAffinity(a, b)
			if aff < 0 || aff > 1 {
				t.Errorf("affinity(%q,%q) = %g out of range", a, b, aff)
			}
			if aff != sim.TrueAffinity(b, a) {
				t.Errorf("affinity not symmetric for %q,%q", a, b)
			}
		}
	}
}

func TestSimulateStructure(t *testing.T) {
	sim := carsSim()
	log := sim.Simulate("cars", 50)
	if log.Domain != "cars" || len(log.Sessions) != 50 {
		t.Fatalf("log = %d sessions in %q", len(log.Sessions), log.Domain)
	}
	seen := map[string]bool{}
	for _, sess := range log.Sessions {
		if seen[sess.UserID] {
			t.Fatalf("duplicate user id %q", sess.UserID)
		}
		seen[sess.UserID] = true
		if len(sess.Events) < 2 {
			t.Fatalf("session %q has %d events", sess.UserID, len(sess.Events))
		}
		lastAt := -1.0
		for _, ev := range sess.Events {
			if ev.At <= lastAt {
				t.Fatalf("timestamps not increasing in %q", sess.UserID)
			}
			lastAt = ev.At
			for _, c := range ev.Clicks {
				if c.Rank < 1 || c.Dwell <= 0 {
					t.Fatalf("bad click %+v", c)
				}
			}
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a := NewSimulator(schema.Cars(), 7).Simulate("cars", 10)
	b := NewSimulator(schema.Cars(), 7).Simulate("cars", 10)
	if len(a.Sessions) != len(b.Sessions) {
		t.Fatal("lengths differ")
	}
	for i := range a.Sessions {
		if len(a.Sessions[i].Events) != len(b.Sessions[i].Events) {
			t.Fatalf("session %d differs", i)
		}
		for j := range a.Sessions[i].Events {
			if a.Sessions[i].Events[j].Query != b.Sessions[i].Events[j].Query {
				t.Fatalf("event %d/%d differs", i, j)
			}
		}
	}
}

func TestTIMatrixBounds(t *testing.T) {
	sim := carsSim()
	m := BuildTIMatrix(sim.Simulate("cars", 300))
	if m.Max() <= 0 || m.Max() > 5 {
		t.Fatalf("Max = %g, want (0,5] (Eq. 3 sums five [0,1] features)", m.Max())
	}
	for _, p := range m.Pairs() {
		s := m.Sim(p[0], p[1])
		if s < 0 || s > 5 {
			t.Errorf("TI_Sim(%v) = %g out of [0,5]", p, s)
		}
		if m.Sim(p[0], p[1]) != m.Sim(p[1], p[0]) {
			t.Errorf("TI_Sim not symmetric for %v", p)
		}
		n := m.NormSim(p[0], p[1])
		if n < 0 || n > 1 {
			t.Errorf("NormSim(%v) = %g", p, n)
		}
	}
	if m.Sim("camry", "camry") != m.Max() {
		t.Error("self-similarity should be Max()")
	}
	if n := m.NormSim("camry", "camry"); n != 1 {
		t.Errorf("NormSim(camry, camry) = %v, want exactly 1", n)
	}
	if m.Sim("camry", "never-seen-value") != 0 {
		t.Error("unknown pair should be 0")
	}
}

// TestTIMatrixRecoversAffinity checks that the log→matrix pipeline
// recovers the latent structure: across many pairs, higher true
// affinity should mean higher TI_Sim (rank correlation clearly
// positive).
func TestTIMatrixRecoversAffinity(t *testing.T) {
	sim := carsSim()
	m := BuildTIMatrix(sim.Simulate("cars", 2000))
	vals := sim.Values()
	type pair struct{ aff, ti float64 }
	var pairs []pair
	for i, a := range vals {
		for _, b := range vals[i+1:] {
			pairs = append(pairs, pair{aff: sim.TrueAffinity(a, b), ti: m.Sim(a, b)})
		}
	}
	// Spearman-style check: sort by affinity, compare mean TI_Sim of
	// the top third against the bottom third.
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].aff < pairs[j].aff })
	third := len(pairs) / 3
	low, high := 0.0, 0.0
	for i := 0; i < third; i++ {
		low += pairs[i].ti
		high += pairs[len(pairs)-1-i].ti
	}
	if high <= low*1.5 {
		t.Errorf("TI-matrix failed to recover affinity: low-third %g vs high-third %g", low/float64(third), high/float64(third))
	}
}
