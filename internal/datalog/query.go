package datalog

import (
	"fmt"

	"declnet/internal/fact"
)

// Query adapts a Datalog program to the query.Query interface: running
// the query evaluates the program on the input instance (as EDB) and
// returns the relation of the designated answer predicate. It is the
// concrete form of "a query in (stratified / nonrecursive) Datalog"
// used by Theorem 6(5) and Corollary 14(3).
type Query struct {
	Program *Program
	Ans     string
	ansAr   int
	edb     fact.Schema
}

// NewQuery builds a Datalog query; the answer predicate must occur in
// the program and the program must be stratifiable.
func NewQuery(p *Program, ans string) (*Query, error) {
	ar := p.Arities().Arity(ans)
	if ar < 0 {
		return nil, fmt.Errorf("datalog: answer predicate %s not in program", ans)
	}
	if _, err := p.Stratify(); err != nil {
		return nil, err
	}
	edb := fact.Schema{}
	arities := p.Arities()
	for _, e := range p.EDB() {
		edb[e] = arities[e]
	}
	return &Query{Program: p, Ans: ans, ansAr: ar, edb: edb}, nil
}

// MustQuery is NewQuery panicking on error.
func MustQuery(p *Program, ans string) *Query {
	q, err := NewQuery(p, ans)
	if err != nil {
		panic(err)
	}
	return q
}

// Arity implements query.Query.
func (q *Query) Arity() int { return q.ansAr }

// Rels implements query.Query: the extensional predicates the program
// reads.
func (q *Query) Rels() []string { return q.Program.EDB() }

// SyntacticallyMonotone implements query.Query: effectively positive
// programs — positive outright, or reducible to a positive program by
// complement absorption (see polarity.go) — are monotone.
func (q *Query) SyntacticallyMonotone() bool { return q.Program.EffectivelyPositive() }

// RelBounded implements query.RelBounded: evaluation restricts the
// input to the program's EDB predicates, so the result depends on
// nothing else.
func (q *Query) RelBounded() bool { return true }

// Eval implements query.Query.
func (q *Query) Eval(I *fact.Instance) (*fact.Relation, error) {
	// Evaluate on the restriction to EDB predicates so that stray
	// relations named like IDB predicates cannot contaminate the
	// least model. Restrict builds a fresh owned instance, so the
	// fixpoint can run in place.
	out, err := q.Program.EvalOwned(I.Restrict(q.edb))
	if err != nil {
		return nil, err
	}
	return out.RelationOr(q.Ans, q.ansAr).Clone(), nil
}

// EvalNaive is Eval by naive fixpoint iteration (Program.EvalNaive:
// every rule re-fired in full each round, on the same compiled plans)
// — identical results, for the naive/semi-naive comparison.
func (q *Query) EvalNaive(I *fact.Instance) (*fact.Relation, error) {
	out, err := q.Program.EvalNaive(I.Restrict(q.edb))
	if err != nil {
		return nil, err
	}
	return out.RelationOr(q.Ans, q.ansAr).Clone(), nil
}

func (q *Query) String() string {
	return fmt.Sprintf("datalog query [%s]:\n%s", q.Ans, q.Program)
}
