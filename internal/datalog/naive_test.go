package datalog

import (
	"fmt"
	"testing"

	"declnet/internal/fact"
)

// evalNaive is Eval by naive fixpoint iteration: within each stratum,
// every rule re-fires through its compiled plan against the full
// instance each round, with no delta pinning, until no round adds a
// fact. It is the semi-naive engine's test oracle on the same
// executor: the two must reach the same model, and fail on the same
// inputs.
func (p *Program) evalNaive(edb *fact.Instance) (*fact.Instance, error) {
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	arities := p.Arities()
	for _, pred := range p.Preds() {
		if r := edb.Relation(pred); r != nil && r.Arity() != arities[pred] {
			return nil, fmt.Errorf("datalog: input relation %s has arity %d here but %d in the program",
				pred, r.Arity(), arities[pred])
		}
	}
	I := edb.Clone()
	for _, stratum := range strata {
		inStratum := map[string]bool{}
		for _, pred := range stratum {
			inStratum[pred] = true
		}
		for changed := true; changed; {
			changed = false
			for _, cr := range p.compiledRules() {
				if !inStratum[cr.headPred] {
					continue
				}
				heads, err := cr.fire(I, -1, nil, nil)
				if err != nil {
					return nil, err
				}
				heads.Each(func(t fact.Tuple) bool {
					if I.AddFact(fact.Fact{Rel: cr.headPred, Args: t}) {
						changed = true
					}
					return true
				})
			}
		}
	}
	return I, nil
}

// evalNaive is Query.Eval by naive fixpoint iteration.
func (q *Query) evalNaive(I *fact.Instance) (*fact.Relation, error) {
	out, err := q.Program.evalNaive(I.Restrict(q.edb))
	if err != nil {
		return nil, err
	}
	return out.RelationOr(q.Ans, q.ansAr).Clone(), nil
}

// TestZooDatalogNaiveMatchesSemiNaive: the construction zoo's Datalog
// query (the transitive closure that MonotoneStreaming and
// DatalogStreaming stream over every node's collected input) reaches
// the naive fixpoint on every view a run can show it: each subset of
// the zoo's four-edge chain, beside the system relations a node state
// also holds.
func TestZooDatalogNaiveMatchesSemiNaive(t *testing.T) {
	q := MustQuery(MustParse(`
		tc(X, Y) :- S(X, Y).
		tc(X, Z) :- S(X, Y), tc(Y, Z).
	`), "tc")
	edges := []fact.Fact{ff("S", "a", "b"), ff("S", "b", "c"), ff("S", "c", "d"), ff("S", "d", "e")}
	for mask := 0; mask < 1<<len(edges); mask++ {
		I := fact.FromFacts(ff("Id", "n1"), ff("All", "n1"), ff("All", "n2"))
		for i, e := range edges {
			if mask&(1<<i) != 0 {
				I.AddFact(e)
			}
		}
		semi, err := q.Eval(I)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := q.evalNaive(I)
		if err != nil {
			t.Fatal(err)
		}
		if !semi.Equal(naive) {
			t.Errorf("edges %04b: semi-naive %v != naive %v", mask, semi, naive)
		}
	}
}

// BenchmarkE14SemiNaiveVsNaive is the fixpoint-strategy ablation
// (BENCHMARKS.md E14): semi-naive vs naive evaluation of the same
// program and EDB, both firing the same compiled rule plans.
func BenchmarkE14SemiNaiveVsNaive(b *testing.B) {
	p := MustParse(tcProgram)
	edb := fact.NewInstance()
	for i := 0; i < 48; i++ {
		edb.AddFact(ff("e", fact.Value(fmt.Sprintf("v%d", i)), fact.Value(fmt.Sprintf("v%d", i+1))))
	}
	b.Run("seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.Eval(edb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := p.evalNaive(edb); err != nil {
				b.Fatal(err)
			}
		}
	})
}
