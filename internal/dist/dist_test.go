package dist

import (
	"fmt"
	"strings"
	"testing"

	"declnet/internal/datalog"
	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/network"
	"declnet/internal/query"
	"declnet/internal/transducer"
	"declnet/internal/while"
)

func f(rel string, args ...fact.Value) fact.Fact { return fact.NewFact(rel, args...) }

func edges() *fact.Instance {
	return fact.FromFacts(f("S", "a", "b"), f("S", "b", "c"), f("S", "c", "d"))
}

func tcWant(t *testing.T, I *fact.Instance) *fact.Relation {
	t.Helper()
	want, err := datalog.MustQuery(datalog.MustParse(`
		tc(X, Y) :- S(X, Y).
		tc(X, Z) :- S(X, Y), tc(Y, Z).
	`), "tc").Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestPartitionStrategies(t *testing.T) {
	I := edges()
	net := network.Ring(3)
	for name, p := range map[string]Partition{
		"roundrobin": RoundRobinSplit(I, net),
		"replicate":  ReplicateAll(I, net),
		"atnode":     AllAtNode(I, "n2"),
		"random":     RandomSplit(I, net, 9),
	} {
		if err := p.Validate(I, net); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !p.Covers(I) {
			t.Errorf("%s: does not cover", name)
		}
	}
	bad := Partition{"nope": I.Clone()}
	if err := bad.Validate(I, net); err == nil {
		t.Error("unknown node accepted")
	}
	lossy := Partition{"n1": fact.NewInstance()}
	if err := lossy.Validate(I, net); err == nil {
		t.Error("lossy partition accepted")
	}
}

func TestRunToQuiescenceComputesTC(t *testing.T) {
	I := edges()
	want := tcWant(t, I)
	tr := TransitiveClosure()
	for name, net := range network.Topologies(4) {
		out, err := RunToQuiescence(net, tr, RoundRobinSplit(I, net), RunOptions{Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.Equal(want) {
			t.Errorf("%s: out = %v, want %v", name, out, want)
		}
	}
}

// TestNewSimIngressRekeyReproducible: two per-run-dictionary sims over
// one partition assign every value the same ID — the ingress rekey
// walks fragments in node order, not partition-map order.
func TestNewSimIngressRekeyReproducible(t *testing.T) {
	I := fact.NewInstance()
	for k := 0; k < 40; k++ {
		I.AddFact(f("S", fact.Value(fmt.Sprintf("ing%d", k*7%40)), fact.Value(fmt.Sprintf("ing%d", k*11%40))))
	}
	net := network.Ring(6)
	p := RandomSplit(I, net, 3)
	for trial := 0; trial < 10; trial++ {
		var dicts [2]*fact.Dict
		for j := range dicts {
			dicts[j] = fact.NewDict()
			if _, err := NewSim(net, TransitiveClosure(), p, RunOptions{Seed: 1, Dict: dicts[j]}); err != nil {
				t.Fatal(err)
			}
		}
		if dicts[0].Len() != dicts[1].Len() {
			t.Fatalf("trial %d: the sims interned %d and %d values", trial, dicts[0].Len(), dicts[1].Len())
		}
		for _, v := range append(I.ActiveDomain(), net.Nodes()...) {
			if a, b := dicts[0].Intern(v), dicts[1].Intern(v); a != b {
				t.Fatalf("trial %d: %s has ID %d in one run's dictionary and %d in the other's", trial, v, a, b)
			}
		}
	}
}

func TestRunToQuiescenceStepBudget(t *testing.T) {
	I := edges()
	net := network.Line(2)
	_, err := RunToQuiescence(net, TransitiveClosure(), RoundRobinSplit(I, net),
		RunOptions{Seed: 1, MaxSteps: 3})
	if err == nil || !strings.Contains(err.Error(), "quiescence") {
		t.Errorf("err = %v, want step-budget failure", err)
	}
}

func TestFloodReplicates(t *testing.T) {
	in := fact.Schema{"S": 2}
	tr, err := Flood(in, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Oblivious() {
		t.Error("flood must be oblivious (Lemma 5(2))")
	}
	I := edges()
	net := network.Line(3)
	sim, err := NewSim(net, tr, RoundRobinSplit(I, net), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(network.NewRandomScheduler(2), 100000)
	if err != nil || !res.Quiescent {
		t.Fatalf("%+v %v", res, err)
	}
	for _, v := range net.Nodes() {
		if !Collected(sim.State(v), in, false).Equal(I) {
			t.Errorf("node %s: collected %v", v, Collected(sim.State(v), in, false))
		}
	}
}

func TestMulticastReadyEverywhere(t *testing.T) {
	in := fact.Schema{"S": 2}
	tr, err := Multicast(in, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Oblivious() || !tr.UsesId() || !tr.UsesAll() {
		t.Error("multicast must read Id and All (Lemma 5(1))")
	}
	I := edges()
	for _, net := range []*network.Network{network.Single(), network.Ring(3)} {
		sim, err := NewSim(net, tr, RoundRobinSplit(I, net), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(network.NewRandomScheduler(4), 500000)
		if err != nil || !res.Quiescent {
			t.Fatalf("%+v %v", res, err)
		}
		for _, v := range net.Nodes() {
			if !Collected(sim.State(v), in, true).Equal(I) {
				t.Errorf("node %s lacks the instance", v)
			}
			if sim.State(v).RelationOr(readyRel, 0).Empty() {
				t.Errorf("node %s not Ready", v)
			}
		}
	}
}

func TestCollectThenComputeNonMonotone(t *testing.T) {
	// Emptiness across topologies, on empty and nonempty inputs: the
	// canonical non-monotone query, consistently computed everywhere.
	tr := Emptiness()
	nets := map[string]*network.Network{
		"single": network.Single(), "line3": network.Line(3), "star4": network.Star(4),
	}
	for _, tc := range []struct {
		I    *fact.Instance
		want int
	}{
		{fact.NewInstance(), 1},
		{fact.FromFacts(f("S", "x"), f("S", "y")), 0},
	} {
		rep, err := CheckTopologyIndependence(nets, tr, tc.I, SweepOptions{Seeds: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Consistent() {
			t.Fatalf("emptiness inconsistent: %v", rep.Outputs)
		}
		if rep.TheOutput().Len() != tc.want {
			t.Errorf("emptiness(%v) = %v, want %d tuples", tc.I, rep.TheOutput(), tc.want)
		}
	}
}

func TestEvenCardinality(t *testing.T) {
	tr, err := EvenCardinality()
	if err != nil {
		t.Fatal(err)
	}
	net := network.Line(2)
	for n, want := range map[int]int{0: 1, 1: 0, 2: 1, 3: 0} {
		I := fact.NewInstance()
		for i := 0; i < n; i++ {
			I.AddFact(f("S", fact.Value(rune('a'+i))))
		}
		out, err := RunToQuiescence(net, tr, RoundRobinSplit(I, net), RunOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != want {
			t.Errorf("parity(%d) = %v", n, out)
		}
	}
}

func TestMonotoneStreamingRejectsNonMonotone(t *testing.T) {
	nonMono := query.NewFunc("neg", 0, []string{"S"}, false,
		func(I *fact.Instance) (*fact.Relation, error) { return fact.NewRelation(0), nil })
	if _, err := MonotoneStreaming(fact.Schema{"S": 1}, nonMono); err == nil {
		t.Error("non-monotone query accepted")
	}
	outside := fo.MustQuery("q", []string{"x"}, fo.AtomF("T", "x"))
	if _, err := MonotoneStreaming(fact.Schema{"S": 1}, outside); err == nil {
		t.Error("query reading outside the schema accepted")
	}
}

func TestDatalogStreamingMatchesEngine(t *testing.T) {
	prog := datalog.MustParse(`
		tc(X, Y) :- S(X, Y).
		tc(X, Z) :- S(X, Y), tc(Y, Z).
	`)
	tr, err := DatalogStreaming(prog, "tc")
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Oblivious() || !tr.Monotone() {
		t.Error("positive Datalog streaming must be oblivious and monotone")
	}
	I := edges()
	net := network.Star(3)
	out, err := RunToQuiescence(net, tr, RoundRobinSplit(I, net), RunOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Equal(tcWant(t, I)) {
		t.Errorf("distributed %v != engine %v", out, tcWant(t, I))
	}
}

func TestFirstElementInconsistent(t *testing.T) {
	tr := FirstElement()
	I := fact.FromFacts(f("S", "p"), f("S", "q"), f("S", "r"))
	net := network.Complete(2)
	distinct := map[string]bool{}
	for seed := int64(0); seed < 12; seed++ {
		out, err := RunToQuiescence(net, tr, AllAtNode(I, "n1"), RunOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		distinct[out.String()] = true
	}
	if len(distinct) < 2 {
		t.Errorf("first-element produced a single output %v; Example 2 demands inconsistency", distinct)
	}
}

func TestRelayOnlyTopologyDependent(t *testing.T) {
	tr := RelayOnly()
	I := fact.FromFacts(f("S", "u"), f("S", "v"))
	single, err := RunToQuiescence(network.Single(), tr, AllAtNode(I, "n1"), RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	line, err := RunToQuiescence(network.Line(2), tr, RoundRobinSplit(I, network.Line(2)), RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if single.Len() != 0 || line.Len() != 2 {
		t.Errorf("single = %v, line = %v; Example 4 expects ∅ vs S", single, line)
	}
}

func TestWhileTransducerMatchesInterpreter(t *testing.T) {
	tc := datalog.MustQuery(datalog.MustParse(`
tc(x, y) :- E(x, y).
tc(x, y) :- E(x, z), tc(z, y).
`), "tc")
	// diverge reads T, and diverges while T is empty.
	diverge := while.Query{P: while.MustParse(`
while !(exists x T(x)) { }
V(x) := T(x);
output V/1
`)}
	cases := []struct {
		name string
		prog *while.Program
		in   fact.Schema
		I    *fact.Instance
		// opaque counts the explain lines of the program's own
		// queries in a language without compiled plans.
		opaque int
	}{
		{"tcComplement", while.MustParse(`
T(x, y) := E(x, y);
D(x, y) := E(x, y);
while exists x, y D(x, y) {
    N(x, y) := T(x, y) | exists z (T(x, z) & T(z, y));
    D(x, y) := N(x, y) & !T(x, y);
    T(x, y) := N(x, y);
}
NC(x, y) := !T(x, y);
output NC/2
`), fact.Schema{"E": 2},
			fact.FromFacts(f("E", "a", "b"), f("E", "b", "c"), f("E", "d", "a")), 0},
		// The condition ranges over the whole store's active domain,
		// E's values included, though the program never reads E.
		{"adomCondition", while.MustParse(`
T(x) := S(x);
while exists x !T(x) {
    U(x) := T(x);
    T(x) := U(x) | !U(x);
}
output T/1
`), fact.Schema{"S": 1, "E": 2}, fact.FromFacts(f("S", "a"), f("E", "b", "c")), 0},
		{"outputNeverAssigned", while.MustParse(`
T(x) := S(x);
output O/1
`), fact.Schema{"S": 1}, fact.FromFacts(f("S", "a")), 0},
		{"datalogAssignment", while.MustNew("D", 2,
			while.Assign{Rel: "T", Q: tc},
			while.Assign{Rel: "D", Q: fo.MustQuery("d", []string{"x", "y"},
				fo.AndF(fo.AtomF("T", "x", "y"), fo.NotF(fo.AtomF("E", "x", "y"))))}),
			fact.Schema{"E": 2}, fact.FromFacts(f("E", "a", "b"), f("E", "b", "c"), f("E", "c", "d")), 0},
		{"emptyBodyHalts", while.MustParse(`
while exists x S(x) { }
T(x, y) := E(x, y);
output T/2
`), fact.Schema{"S": 1, "E": 2}, fact.FromFacts(f("E", "a", "b")), 0},
		// A partial assignment query runs only where the pc reaches
		// it: never inside a loop never entered, and only after the
		// assignments before it.
		{"unreachedPartialAssignment", while.MustNew("X", 1,
			while.While{Cond: fo.Truth{Val: false}, Body: []while.Stmt{while.Assign{Rel: "X", Q: diverge}}}),
			fact.Schema{"T": 1}, fact.NewInstance(), 1},
		{"partialAssignmentAfterItsInput", while.MustNew("X", 1,
			while.Assign{Rel: "T", Q: fo.MustQuery("t", []string{"x"}, fo.AtomF("S", "x"))},
			while.Assign{Rel: "X", Q: diverge}),
			fact.Schema{"S": 1}, fact.FromFacts(f("S", "a")), 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			direct, err := (while.Query{P: c.prog}).Eval(c.I)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := WhileTransducer(c.prog, c.in)
			if err != nil {
				t.Fatal(err)
			}
			if !tr.Oblivious() {
				t.Error("while compilation should be oblivious")
			}
			// Every query the compilation builds is FO, so explain
			// shows plans wherever the program's own queries have them.
			if n := strings.Count(transducer.ExplainPlans(tr), "opaque query"); n != c.opaque {
				t.Errorf("explain output has %d opaque queries, want %d", n, c.opaque)
			}
			out, err := RunToQuiescence(network.Single(), tr, AllAtNode(c.I, "n1"), RunOptions{Seed: 2, MaxSteps: 100000})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Equal(direct) {
				t.Errorf("transducer %v != interpreter %v", out, direct)
			}
		})
	}
}

// TestWhileTransducerDivergence: the transducer reaches a quiescence
// point exactly when the interpreter halts.
func TestWhileTransducerDivergence(t *testing.T) {
	cases := []struct {
		name, prog string
		I          *fact.Instance
		halts      bool
	}{
		{"whileTrue", "while true {\n    T(x) := S(x);\n}\noutput T/1", fact.FromFacts(f("S", "v")), false},
		{"emptyBody", "while exists x S(x) { }\noutput S/1", fact.FromFacts(f("S", "a")), false},
		{"emptyBodyHalts", "while exists x S(x) { }\noutput S/1", fact.NewInstance(), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := while.MustParse(c.prog)
			if _, err := (while.Query{P: prog}).Eval(c.I); (err == nil) != c.halts {
				t.Fatalf("interpreter: err = %v, want halts = %v", err, c.halts)
			}
			tr, err := WhileTransducer(prog, fact.Schema{"S": 1})
			if err != nil {
				t.Fatal(err)
			}
			sim, err := NewSim(network.Single(), tr, AllAtNode(c.I, "n1"), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(network.NewHeartbeatOnly(), 200)
			if err != nil {
				t.Fatal(err)
			}
			if res.Quiescent != c.halts {
				t.Errorf("quiescent = %v, want %v", res.Quiescent, c.halts)
			}
			if res.Output.Len() != 0 {
				t.Errorf("output %v, want none", res.Output)
			}
		})
	}
}

func TestWhileTransducerRejectsInputAssignment(t *testing.T) {
	prog := while.MustParse(`
S(x) := S(x);
output S/1
`)
	if _, err := WhileTransducer(prog, fact.Schema{"S": 1}); err == nil {
		t.Error("assignment to an input relation accepted")
	}
}

func TestSweepReportShape(t *testing.T) {
	rep := &SweepReport{}
	if rep.Consistent() || rep.TheOutput() != nil {
		t.Error("empty report misreported")
	}
	r1 := fact.NewRelation(1)
	r1.Add(fact.Tuple{"a"})
	rep.record(r1)
	if !rep.Consistent() || rep.TheOutput() != r1 || rep.Runs != 1 {
		t.Error("singleton report misreported")
	}
	r2 := fact.NewRelation(1)
	rep.record(r2)
	if rep.Consistent() || rep.TheOutput() != nil || rep.Runs != 2 {
		t.Error("two-output report misreported")
	}
}
