package dist

// Differential correctness harness for the incremental firing engine
// and the schedule: every construction of the paper (the package's
// transducer zoo) is run through
//
//  1. the configuration matrix (matrix_test.go): every runtime,
//     channel, dictionary, pipeline, probe and budget configuration
//     bit-identical to its reference run;
//  2. a node-local cross-check of transducer.Firing against the
//     specification evaluator Transducer.Step under 50 random
//     schedules per example;
//  3. a schedule-permutation sweep for the monotone constructions:
//     permuting delivery order (random seeds, FIFO, LIFO-with-delay,
//     parallel rounds) never changes the quiescent output — the
//     paper's consistency property.

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"declnet/internal/datalog"
	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/network"
	"declnet/internal/query"
	"declnet/internal/transducer"
	"declnet/internal/while"
)

// diffExample is one construction of the dist zoo with a sample input
// and the network the differential runs use.
type diffExample struct {
	name string
	tr   *transducer.Transducer
	I    *fact.Instance
	net  *network.Network
	// consistent: every fair run on this network yields one output,
	// so the parallel rounds must reproduce the sequential
	// scheduler's answer exactly. FirstElement is the inconsistent
	// specimen — there only Workers-independence is required.
	consistent bool
}

// diffZoo returns every transducer construction of the package.
func diffZoo(t testing.TB) []diffExample {
	t.Helper()
	must := func(tr *transducer.Transducer, err error) *transducer.Transducer {
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	edges := fact.FromFacts(f("S", "a", "b"), f("S", "b", "c"), f("S", "c", "d"), f("S", "d", "e"))
	eqPairs := fact.FromFacts(f("S", "a", "a"), f("S", "a", "b"), f("S", "c", "c"))
	set := fact.FromFacts(f("S", "x1"), f("S", "x2"), f("S", "x3"))
	ab := fact.FromFacts(f("A", "a1"), f("A", "a2"), f("B", "b1"))

	tcq := datalog.MustQuery(datalog.MustParse(`
		tc(X, Y) :- S(X, Y).
		tc(X, Z) :- S(X, Y), tc(Y, Z).
	`), "tc")
	emptiness := query.NewFunc("emptiness", 0, []string{"S"}, false,
		func(I *fact.Instance) (*fact.Relation, error) {
			out := fact.NewRelation(0)
			if I.RelationOr("S", 1).Empty() {
				out.Add(fact.Tuple{})
			}
			return out, nil
		})
	floodOut := fo.MustQuery("pairs", []string{"x", "y"}, fo.AtomF("S", "x", "y"))
	whileProg := while.MustParse(`
T(x, y) := E(x, y);
D(x, y) := E(x, y);
while exists x, y D(x, y) {
    N(x, y) := T(x, y) | exists z (T(x, z) & T(z, y));
    D(x, y) := N(x, y) & !T(x, y);
    T(x, y) := N(x, y);
}
output T/2
`)
	whileIn := fact.FromFacts(f("E", "a", "b"), f("E", "b", "c"), f("E", "d", "a"))

	return []diffExample{
		{"transitiveClosure", TransitiveClosure(), edges, network.Line(3), true},
		{"equalitySelection", EqualitySelection(), eqPairs, network.Ring(3), true},
		{"firstElement", FirstElement(), set, network.Complete(3), false},
		{"relayOnly", RelayOnly(), set, network.Line(3), true},
		{"flood", must(Flood(fact.Schema{"S": 2}, floodOut, 2)), edges, network.Ring(4), true},
		{"multicast", must(Multicast(fact.Schema{"S": 2}, floodOut, 2)), edges, network.Line(3), true},
		{"collectThenCompute", must(CollectThenCompute(fact.Schema{"S": 1}, emptiness)), set, network.Ring(3), true},
		{"monotoneStreaming", must(MonotoneStreaming(fact.Schema{"S": 2}, tcq)), edges, network.Star(4), true},
		{"datalogStreaming", must(DatalogStreaming(datalog.MustParse(`
			tc(X, Y) :- S(X, Y).
			tc(X, Z) :- S(X, Y), tc(Y, Z).
		`), "tc")), edges, network.Line(3), true},
		{"whileTransducer", must(WhileTransducer(whileProg, fact.Schema{"E": 2})), whileIn, network.Single(), true},
		{"emptiness", Emptiness(), set, network.Ring(3), true},
		{"eitherNonempty", EitherNonempty(), ab, network.Line(3), true},
		{"pingIdentity", PingIdentity(), set, network.Line(3), true},
		{"evenCardinality", must(EvenCardinality()), set, network.Line(2), true},
	}
}

// adomComplement is a firing-only example whose output query ranges
// over the active domain and reads no message relation: out(x) :=
// ¬S(x). A delivered message carrying a value the state lacks grows
// the active domain and so the output, which only a query not marked
// rel-bounded re-evaluates.
func adomComplement(t testing.TB) diffExample {
	t.Helper()
	tr, err := transducer.NewBuilder("adomComplement", fact.Schema{"S": 1}).
		Msg("M", 1).
		Snd("M", fo.MustQuery("sndM", []string{"x"}, fo.AtomF("S", "x"))).
		Out(1, fo.MustQuery("out", []string{"x"}, fo.NotF(fo.AtomF("S", "x")))).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return diffExample{"adomComplement", tr, fact.FromFacts(f("S", "x1"), f("S", "x2")), network.Line(2), true}
}

// TestDifferentialFiringVsStep cross-checks the incremental evaluator
// against the specification evaluator: under 50 random node-local
// schedules per example — arbitrary interleavings of heartbeats and
// deliveries of previously sent facts, or of one fact per message
// relation over values no state holds (as another node may send) —
// Firing.Step must produce effects bit-identical to Transducer.Step
// from the same (state, rcv), and return the input state itself
// exactly when the state is unchanged (the identity contract the sim
// and HeartbeatFixpoint use).
func TestDifferentialFiringVsStep(t *testing.T) {
	const schedules = 50
	const stepsPer = 25
	for _, e := range append(diffZoo(t), adomComplement(t)) {
		t.Run(e.name, func(t *testing.T) {
			// A well-formed two-node state for node n1 (one-node for
			// single-node constructions), holding the whole input.
			nodes := e.net.Nodes()
			initial := fact.NewInstance()
			initial.UnionWith(e.I)
			initial.AddFact(fact.NewFact(transducer.SysId, nodes[0]))
			for _, v := range nodes {
				initial.AddFact(fact.NewFact(transducer.SysAll, v))
			}
			for sched := 0; sched < schedules; sched++ {
				rng := rand.New(rand.NewPCG(uint64(sched), 0x5bd1e995))
				state := initial.Clone()
				firing := transducer.NewFiring(e.tr)
				var pool []fact.Fact
				for _, rel := range e.tr.Schema.Msg.Names() {
					args := make([]fact.Value, e.tr.Schema.Msg[rel])
					for i := range args {
						args[i] = fact.Value(fmt.Sprintf("foreign%d", i))
					}
					pool = append(pool, fact.NewFact(rel, args...))
				}
				for step := 0; step < stepsPer; step++ {
					var rcv *fact.Instance
					if len(pool) > 0 && rng.IntN(2) == 1 {
						rcv = fact.FromFacts(pool[rng.IntN(len(pool))])
					}
					oracle, err := e.tr.Step(state, rcv)
					if err != nil {
						t.Fatalf("schedule %d step %d: oracle: %v", sched, step, err)
					}
					eff, changed, err := firing.Step(state, rcv)
					if err != nil {
						t.Fatalf("schedule %d step %d: firing: %v", sched, step, err)
					}
					if !eff.State.Equal(oracle.State) {
						t.Fatalf("schedule %d step %d: state %v != oracle %v", sched, step, eff.State, oracle.State)
					}
					if !eff.Snd.Equal(oracle.Snd) {
						t.Fatalf("schedule %d step %d: snd %v != oracle %v", sched, step, eff.Snd, oracle.Snd)
					}
					if !eff.Out.Equal(oracle.Out) {
						t.Fatalf("schedule %d step %d: out %v != oracle %v", sched, step, eff.Out, oracle.Out)
					}
					if changed != !oracle.State.Equal(state) {
						t.Fatalf("schedule %d step %d: stateChanged=%v, oracle differs=%v", sched, step, changed, !oracle.State.Equal(state))
					}
					if (eff.State == state) != !changed {
						t.Fatalf("schedule %d step %d: Effect.State is the input state = %v, want %v (stateChanged=%v)", sched, step, eff.State == state, !changed, changed)
					}
					for _, sf := range eff.Snd.Facts() {
						if len(pool) < 64 {
							pool = append(pool, sf)
						}
					}
					state = eff.State
				}
			}
		})
	}
}

// TestParallelSchedulePermutation: for the monotone constructions,
// permuting the delivery order — across random-scheduler seeds, FIFO,
// LIFO-with-delay reordering, and parallel rounds at several worker
// counts — never changes the quiescent output. This is the paper's
// consistency property for monotone programs; the CI race job runs it
// under -race.
func TestParallelSchedulePermutation(t *testing.T) {
	for _, e := range diffZoo(t) {
		if !e.tr.Monotone() || !e.consistent {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			p := RoundRobinSplit(e.I, e.net)
			type variant struct {
				name string
				opt  RunOptions
			}
			variants := []variant{
				{"fifo", RunOptions{Scheduler: network.NewRoundRobinFIFO()}},
				{"parallel-w2", RunOptions{Seed: 5, Workers: 2}},
				{"parallel-w4", RunOptions{Seed: 13, Workers: 4}},
			}
			// LIFO-with-delay delivers newest-first, so it is only
			// fair once traffic subsides; on the star hub the flooding
			// substrate refills the buffer forever and the oldest
			// facts starve (no quiescence point is reached). Exercise
			// the reordering variant on the other topologies.
			if e.name != "monotoneStreaming" {
				variants = append(variants, variant{"lifo-delay", RunOptions{Scheduler: network.NewLIFODelay(9, 2)}})
			}
			for seed := int64(1); seed <= 5; seed++ {
				variants = append(variants, variant{fmt.Sprintf("random-%d", seed), RunOptions{Seed: seed}})
			}
			var want *fact.Relation
			var wantName string
			for _, v := range variants {
				out, err := RunToQuiescence(e.net, e.tr, p, v.opt)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if want == nil {
					want, wantName = out, v.name
					continue
				}
				if !out.Equal(want) {
					t.Errorf("%s output %s != %s output %s", v.name, out, wantName, want)
				}
			}
		})
	}
}
