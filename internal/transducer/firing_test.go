package transducer_test

import (
	"testing"

	"declnet/internal/dist"
	"declnet/internal/fact"
	"declnet/internal/transducer"
)

// saturatedGossip returns a gossip node n1 of the ring n0-n1-n2 that
// has heard both neighbours, its firing positioned on that state, and
// the receive instance re-delivering the known fact P(n0).
func saturatedGossip(t *testing.T) (*transducer.Firing, *fact.Instance, *fact.Instance) {
	t.Helper()
	state := fact.NewInstance()
	state.AddFact(fact.NewFact(transducer.SysId, "n1"))
	for _, v := range []fact.Value{"n0", "n1", "n2"} {
		state.AddFact(fact.NewFact(transducer.SysAll, v))
	}
	f := transducer.NewFiring(dist.Gossip())
	for _, w := range []fact.Value{"n0", "n2"} {
		eff, changed, err := f.Step(state, fact.FromFacts(fact.NewFact("P", w)))
		if err != nil {
			t.Fatal(err)
		}
		if !changed {
			t.Fatalf("first delivery of P(%s) left the state unchanged", w)
		}
		state = eff.State
	}
	// One heartbeat and one re-delivery warm every cache and memo the
	// steady state relies on.
	rcv := fact.FromFacts(fact.NewFact("P", "n0"))
	for _, in := range []*fact.Instance{nil, rcv} {
		eff, changed, err := f.Step(state, in)
		if err != nil {
			t.Fatal(err)
		}
		if changed || eff.State != state {
			t.Fatalf("saturated node changed state (changed=%v, same pointer=%v)", changed, eff.State == state)
		}
	}
	return f, state, rcv
}

// TestSaturatedFiringAllocs pins the allocations of the transitions a
// saturated node performs in the steady state of a fair run: a
// heartbeat, a re-delivery of a known fact, and the quiescence probe of
// that re-delivery. None of them changes anything, so none may build a
// successor instance, a send instance or a map.
func TestSaturatedFiringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	f, state, rcv := saturatedGossip(t)
	cases := []struct {
		name string
		max  float64
		run  func() error
	}{
		{"heartbeat Step", 0, func() error {
			_, _, err := f.Step(state, nil)
			return err
		}},
		{"re-delivery Step", 5, func() error {
			_, _, err := f.Step(state, rcv)
			return err
		}},
		{"re-delivery ProbeParts", 5, func() error {
			_, _, _, err := f.ProbeParts(state, rcv)
			return err
		}},
	}
	for _, c := range cases {
		var err error
		got := testing.AllocsPerRun(100, func() {
			if e := c.run(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got > c.max {
			t.Errorf("%s: %.0f allocations per call, want at most %.0f", c.name, got, c.max)
		}
	}
}
