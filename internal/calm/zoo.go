package calm

import (
	"declnet/internal/datalog"
	"declnet/internal/dist"
	"declnet/internal/fact"
	"declnet/internal/transducer"
)

// ZooEntry packages one of the paper's transducers with its expected
// semantic properties, forming the test matrix for the CALM
// experiments (E8-E10).
type ZooEntry struct {
	Name string
	Tr   *transducer.Transducer
	// Full is the largest sample instance; monotonicity tests use its
	// growing chain and coordination tests use selected prefixes.
	Full *fact.Instance
	// Consistent: all fair runs on all partitions and (sampled)
	// topologies agree. FirstElement is the inconsistent specimen.
	Consistent bool
	// TopologyIndependent additionally requires the same output on the
	// single-node network (RelayOnly and EvenCardinality fail this).
	TopologyIndependent bool
	// CoordinationFree per the §5 definition (searched witnesses).
	CoordinationFree bool
	// MonotoneQuery: the computed query is monotone.
	MonotoneQuery bool
}

func f(rel string, args ...fact.Value) fact.Fact { return fact.NewFact(rel, args...) }

// Zoo returns the transducer zoo: every construction of the paper with
// the properties the paper claims for it.
func Zoo() []ZooEntry {
	edges := fact.FromFacts(
		f("S", "a", "b"), f("S", "b", "c"), f("S", "c", "a"), f("S", "c", "d"),
	)
	set := fact.FromFacts(f("S", "x1"), f("S", "x2"), f("S", "x3"))
	ab := fact.FromFacts(f("A", "a1"), f("A", "a2"), f("B", "b1"))

	tcStream, err := dist.MonotoneStreaming(fact.Schema{"S": 2}, datalog.MustQuery(datalog.MustParse(`
		tc(X, Y) :- S(X, Y).
		tc(X, Z) :- S(X, Y), tc(Y, Z).
	`), "tc"))
	if err != nil {
		panic(err)
	}

	return []ZooEntry{
		{
			Name: "transitiveClosure(Ex3)", Tr: dist.TransitiveClosure(), Full: edges,
			Consistent: true, TopologyIndependent: true,
			CoordinationFree: true, MonotoneQuery: true,
		},
		{
			Name: "monotoneStreamingTC(Thm6.2)", Tr: tcStream, Full: edges,
			Consistent: true, TopologyIndependent: true,
			CoordinationFree: true, MonotoneQuery: true,
		},
		{
			Name: "equalitySelection(Ex3)", Tr: dist.EqualitySelection(),
			Full:       fact.FromFacts(f("S", "a", "a"), f("S", "a", "b"), f("S", "c", "c")),
			Consistent: true, TopologyIndependent: true,
			CoordinationFree: true, MonotoneQuery: true,
		},
		{
			Name: "emptiness(Ex10)", Tr: dist.Emptiness(), Full: set,
			Consistent: true, TopologyIndependent: true,
			CoordinationFree: false, MonotoneQuery: false,
		},
		{
			Name: "collectEmptiness(Thm6.1)", Tr: dist.Emptiness(), Full: set,
			Consistent: true, TopologyIndependent: true,
			CoordinationFree: false, MonotoneQuery: false,
		},
		{
			Name: "eitherNonempty(Sec5)", Tr: dist.EitherNonempty(), Full: ab,
			Consistent: true, TopologyIndependent: true,
			CoordinationFree: true, MonotoneQuery: true,
		},
		{
			Name: "pingIdentity(Ex15)", Tr: dist.PingIdentity(), Full: set,
			Consistent: true, TopologyIndependent: true,
			CoordinationFree: false, MonotoneQuery: true,
		},
	}
}
