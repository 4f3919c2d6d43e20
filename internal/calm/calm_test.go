package calm

import (
	"testing"

	"declnet/internal/dist"
	"declnet/internal/fact"
	"declnet/internal/network"
)

// calmNets is the topology sample used for the universally quantified
// "on any network" in the coordination-freeness definition. Multi-node
// only: on the single-node network every run is heartbeat-only and
// freeness is trivial.
func calmNets() map[string]*network.Network {
	return map[string]*network.Network{
		"line2": network.Line(2),
		"ring3": network.Ring(3),
		"star4": network.Star(4),
	}
}

func TestZooClassification(t *testing.T) {
	// Syntactic classes must match the paper's constructions.
	expect := map[string]Class{
		"transitiveClosure(Ex3)":      {Oblivious: true, Inflationary: true, Monotone: true},
		"monotoneStreamingTC(Thm6.2)": {Oblivious: true, Inflationary: true, Monotone: true},
		"equalitySelection(Ex3)":      {Oblivious: true, Inflationary: true, Monotone: true},
		"emptiness(Ex10)":             {UsesId: true, UsesAll: true, Inflationary: true},
		"eitherNonempty(Sec5)":        {UsesAll: true, Inflationary: true},
		"pingIdentity(Ex15)":          {UsesAll: true, Inflationary: true},
	}
	for _, e := range Zoo() {
		want, ok := expect[e.Name]
		if !ok {
			t.Errorf("no expectation for %s", e.Name)
			continue
		}
		got := Classify(e.Tr)
		want.Oblivious = !want.UsesId && !want.UsesAll
		if got != want {
			t.Errorf("%s: class = %v, want %v", e.Name, got, want)
		}
	}
}

func TestZooCoordinationFreeness(t *testing.T) {
	// E8: the §5 coordination-freeness test must match the paper's
	// claims for every zoo transducer, over every sample instance
	// (freeness requires a witness for EVERY instance; we use the
	// chain prefixes as the instance family).
	nets := calmNets()
	for _, e := range Zoo() {
		if !e.Consistent {
			continue
		}
		instances := []*fact.Instance{fact.NewInstance(), e.Full}
		free := true
		for _, I := range instances {
			expected, err := ExpectedOutput(e.Tr, I)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			ok, failNet, err := CoordinationFree(nets, e.Tr, I, expected)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if !ok {
				free = false
				t.Logf("%s: no heartbeat-only witness on %s for %v", e.Name, failNet, I)
			}
		}
		if free != e.CoordinationFree {
			t.Errorf("%s: coordination-free = %v, want %v", e.Name, free, e.CoordinationFree)
		}
	}
}

func TestEitherNonemptyWitnessRequiresSplit(t *testing.T) {
	// The §5 point: for the A,B-both-nonempty instance, full
	// replication is NOT a witness (communication would be needed),
	// but the relation-splitting partition is.
	tr := dist.EitherNonempty()
	I := fact.FromFacts(f("A", "a1"), f("B", "b1"))
	net := network.Line(2)
	expected, err := ExpectedOutput(tr, I)
	if err != nil {
		t.Fatal(err)
	}
	if expected.Len() != 1 {
		t.Fatalf("expected = %v", expected)
	}
	// Replicated partition: heartbeat fixpoint must NOT produce the
	// output (both fragments nonempty everywhere → only sends).
	sim, err := network.NewSim(net, tr, dist.ReplicateAll(I, net))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.HeartbeatFixpoint(100); err != nil {
		t.Fatal(err)
	}
	if sim.Output().Len() != 0 {
		t.Error("replicated partition should require communication")
	}
	// Split partition: heartbeats alone suffice.
	sim2, err := network.NewSim(net, tr, SplitByRelation(I, net))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.HeartbeatFixpoint(100); err != nil {
		t.Fatal(err)
	}
	if !sim2.Output().Equal(expected) {
		t.Errorf("split partition output = %v, want %v", sim2.Output(), expected)
	}
}

func TestZooMonotonicity(t *testing.T) {
	// E9, Theorem 12 side: for every consistent zoo transducer the
	// empirical monotonicity verdict must match the paper's claim; and
	// the CALM implication "coordination-free ⇒ monotone" must hold on
	// the zoo.
	for _, e := range Zoo() {
		if !e.Consistent {
			continue
		}
		viol, err := CheckMonotone(e.Tr, GrowingChain(e.Full))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		monotone := viol == nil
		if monotone != e.MonotoneQuery {
			t.Errorf("%s: monotone = %v, want %v (violation %+v)", e.Name, monotone, e.MonotoneQuery, viol)
		}
		if e.CoordinationFree && !monotone {
			t.Errorf("%s: CALM violated: coordination-free but not monotone", e.Name)
		}
	}
}

func TestTheorem16NoIdImpliesMonotone(t *testing.T) {
	// Every zoo transducer avoiding Id must compute a monotone query.
	for _, e := range Zoo() {
		if !e.Consistent || e.Tr.UsesId() {
			continue
		}
		viol, err := CheckMonotone(e.Tr, GrowingChain(e.Full))
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if viol != nil {
			t.Errorf("%s: uses no Id yet non-monotone: %+v", e.Name, viol)
		}
	}
}

func TestSimulateRingConstruction(t *testing.T) {
	// E10: the Theorem 16 run construction on the Example 15
	// transducer (uses All, not Id). I ⊂ J on a unary S.
	tr := dist.PingIdentity()
	I := fact.FromFacts(f("S", "u"), f("S", "v"))
	J := fact.FromFacts(f("S", "u"), f("S", "v"), f("S", "w"))
	res, err := SimulateRing(tr, I, J, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !res.UniformEveryRound {
		t.Error("lock-step invariant violated in ρ")
	}
	if !res.PrefixReproduced {
		t.Error("ρ′ did not reproduce ρ's prefix on nodes 1,2,4")
	}
	if res.OutputI.Len() != 2 {
		t.Errorf("out(ρ) = %v, want S of I", res.OutputI)
	}
	if !res.OutputI.SubsetOf(res.OutputJ) {
		t.Errorf("monotonicity: %v ⊄ %v", res.OutputI, res.OutputJ)
	}
	if res.OutputJ.Len() != 3 {
		t.Errorf("out(fair ρ′ extension) = %v, want S of J", res.OutputJ)
	}
}

func TestSimulateRingRejectsIdUsers(t *testing.T) {
	if _, err := SimulateRing(dist.Emptiness(), fact.NewInstance(), fact.NewInstance(), 10); err == nil {
		t.Error("transducer using Id must be rejected")
	}
	tr := dist.PingIdentity()
	if _, err := SimulateRing(tr, fact.FromFacts(f("S", "a")), fact.NewInstance(), 10); err == nil {
		t.Error("I ⊄ J must be rejected")
	}
}

func TestGrowingChain(t *testing.T) {
	full := fact.FromFacts(f("S", "a"), f("S", "b"))
	chain := GrowingChain(full)
	if len(chain) != 3 {
		t.Fatalf("chain length = %d", len(chain))
	}
	for i := 0; i+1 < len(chain); i++ {
		if !chain[i].SubsetOf(chain[i+1]) {
			t.Error("chain not increasing")
		}
	}
	if !chain[2].Equal(full) {
		t.Error("chain does not end at full")
	}
}

func TestSplitByRelationCovers(t *testing.T) {
	I := fact.FromFacts(f("A", "x"), f("B", "y"), f("B", "z"))
	net := network.Line(3)
	p := SplitByRelation(I, net)
	if err := p.Validate(I, net); err != nil {
		t.Fatal(err)
	}
	// A and B must land on different nodes.
	for _, h := range p {
		hasA := h.Relation("A") != nil && h.Relation("A").Len() > 0
		hasB := h.Relation("B") != nil && h.Relation("B").Len() > 0
		if hasA && hasB {
			t.Error("relations not separated")
		}
	}
}
