package fo

import (
	"fmt"

	"declnet/internal/fact"
	"declnet/internal/query"
)

// Query is an FO query: an output tuple of head variables together
// with a formula whose free variables are exactly (a subset of) the
// head. It implements query.Query.
type Query struct {
	Name string
	Head []Var
	Body Formula

	// branches is the disjunctive decomposition of the body, each
	// branch lowered onto a compiled join plan (fastpath.go).
	branches []branch

	// deltaOK marks the query exact under semi-naive delta evaluation
	// (EvalDelta): no plan of the query or of its inner queries has an
	// anti-join, so the query is monotone and re-evaluating a branch
	// over full ∪ delta never loses a derivation of the union.
	deltaOK bool

	// summary is built by NewQuery (polarity.go); inner queries have
	// none.
	summary *query.Summary
}

// NewQuery builds an FO query, checks that the body's free variables
// are all listed in the head (safety of output tuples is then
// guaranteed by the active-domain semantics), lowers the body onto the
// compiled plan layer and summarizes it.
func NewQuery(name string, head []string, body Formula) (*Query, error) {
	q, err := compileQuery(name, head, body)
	if err != nil {
		return nil, err
	}
	q.summary = q.summarize()
	return q, nil
}

// compileQuery is NewQuery without the summary, for inner queries and
// one-off sentences.
func compileQuery(name string, head []string, body Formula) (*Query, error) {
	hv := make([]Var, len(head))
	seen := make(map[Var]bool, len(head))
	for i, h := range head {
		hv[i] = Var(h)
		seen[Var(h)] = true
	}
	for _, v := range FreeVars(body) {
		if !seen[v] {
			return nil, fmt.Errorf("fo: query %s: free variable %s not in head %v", name, v, head)
		}
	}
	q := &Query{Name: name, Head: hv, Body: body, deltaOK: true}
	if rebinds(body, seen) {
		body = renameApart(body, hv)
	}
	conjs := normalize(body)
	q.branches = make([]branch, 0, len(conjs))
	for i, c := range conjs {
		b, err := compileBranch(fmt.Sprintf("%s#%d", name, i+1), hv, c)
		if err != nil {
			return nil, fmt.Errorf("fo: query %s: %w", name, err)
		}
		q.branches = append(q.branches, b)
		q.deltaOK = q.deltaOK && b.monotone()
	}
	return q, nil
}

// MustQuery is NewQuery panicking on error; for statically known
// queries in constructions and tests.
func MustQuery(name string, head []string, body Formula) *Query {
	q, err := NewQuery(name, head, body)
	if err != nil {
		panic(err)
	}
	return q
}

// Arity implements query.Query.
func (q *Query) Arity() int { return len(q.Head) }

// Summary implements query.Query.
func (q *Query) Summary() *query.Summary { return q.summary }

// String renders the query as head :- body.
func (q *Query) String() string {
	return fmt.Sprintf("%s(%s) := %s", q.Name, joinVars(q.Head), q.Body)
}

// Eval implements query.Query with the active-domain semantics: every
// branch runs its compiled join plan.
func (q *Query) Eval(I *fact.Instance) (*fact.Relation, error) {
	out := I.Dict().NewRelation(len(q.Head))
	ctx := evalCtx{I: I}
	if err := q.evalInto(&ctx, out); err != nil {
		return nil, fmt.Errorf("fo: query %s: %w", q.Name, err)
	}
	return out, nil
}

// Holds evaluates a sentence (formula with no free variables) on I: it
// compiles the sentence as a 0-ary query and reports whether the query
// returns the empty tuple. Callers that test one sentence repeatedly
// should build that query once instead.
func Holds(f Formula, I *fact.Instance) (bool, error) {
	if fv := FreeVars(f); len(fv) != 0 {
		return false, fmt.Errorf("fo: Holds on open formula (free: %v)", fv)
	}
	q, err := compileQuery("holds", nil, f)
	if err != nil {
		return false, err
	}
	r, err := q.Eval(I)
	if err != nil {
		return false, err
	}
	return !r.Empty(), nil
}
