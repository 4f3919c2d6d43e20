package datalog

import (
	"fmt"

	"declnet/internal/fact"
	"declnet/internal/query"
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
	summary *query.Summary
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
	q := &Query{Program: p, Ans: ans, ansAr: ar, edb: edb}
	q.summary = q.summarize()
	return q, nil
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

// Summary implements query.Query.
func (q *Query) Summary() *query.Summary { return q.summary }

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

func (q *Query) String() string {
	return fmt.Sprintf("datalog query [%s]:\n%s", q.Ans, q.Program)
}
