// Package query defines the abstract notion of a database query used
// throughout the reproduction. The paper's transducers are collections
// of queries over a combined schema; the model is parameterized by the
// local query language L. Every concrete language in this repository
// (first-order logic, Datalog fragments, while-programs, and arbitrary
// Go functions standing in for a computationally complete language)
// implements the Query interface defined here.
//
// A query describes itself through one immutable Summary (deps.go):
// the relations it reads, with polarity, its monotonicity evidence,
// rel-boundedness, delta exactness and the Horn clauses behind the
// emptiness analysis. Each language builds the summary once, when the
// query is made, so the transducer runtime and the static analyzer
// read facts instead of re-deriving them.
package query

import (
	"fmt"
	"sort"

	"declnet/internal/fact"
)

// Query is a k-ary database query over some schema. Eval must be
// deterministic and generic (commute with permutations of dom) for the
// paper's definitions to apply; implementations in this repository are.
type Query interface {
	// Arity is the arity k of the query's output relation.
	Arity() int

	// Eval computes the query on an instance. The result is a k-ary
	// relation over adom(I) (safety is the implementation's duty).
	Eval(I *fact.Instance) (*fact.Relation, error)

	// Summary returns the query's static description. It is shared:
	// callers must not modify it.
	Summary() *Summary
}

// DeltaEvaluable is implemented by queries that support semi-naive
// delta evaluation, the contract behind incremental transducer firing
// (package transducer) and delta-driven fixpoints.
type DeltaEvaluable interface {
	Query

	// EvalDelta returns derivations that may involve at least one fact
	// of delta, evaluated against I = full ∪ delta, leaving out those
	// in have, the result the caller already holds (nil for none). It
	// returns nil when nothing is new. full either already contains
	// delta or holds none of delta's relations (a transducer state and
	// its received messages, whose schemas are disjoint), so callers
	// never need to build the union. When Summary().Delta holds, the
	// result satisfies
	//
	//	Eval(I) = Eval(I \ delta) ∪ EvalDelta(full, delta, nil).
	EvalDelta(full, delta *fact.Instance, have *fact.Relation) (*fact.Relation, error)
}

// PlanExplainer is implemented by queries that evaluate through the
// compiled query-plan layer (internal/plan) and can render their
// physical plans: chosen atom order, probe columns, filter
// placement, delta-pinned variants. run.Explain aggregates it per
// transducer so plan regressions are diffable.
type PlanExplainer interface {
	// ExplainPlan renders the query's compiled plans, one op per line.
	ExplainPlan() string
}

// ExplainPlan returns q's plan rendering, or a one-line placeholder
// for queries that do not evaluate through the plan layer (opaque Go
// functions, constant queries).
func ExplainPlan(q Query) string {
	if e, ok := q.(PlanExplainer); ok {
		return e.ExplainPlan()
	}
	return fmt.Sprintf("opaque query (no compiled plan): arity %d, reads %v\n", q.Arity(), q.Summary().Reads)
}

// Empty is the query returning the empty k-ary relation on every
// input. The paper uses it for deletion queries of inflationary
// transducers and as the default for unspecified transducer queries.
type Empty struct{ K int }

// emptySummary describes every Empty query: it reads nothing and has
// no clause, so it provably never produces a tuple.
var emptySummary = &Summary{
	Evidence:   MonotoneEvidence{Monotone: true, Reasons: []string{"query declares syntactic monotonicity"}},
	RelBounded: true,
}

// Arity implements Query.
func (e Empty) Arity() int { return e.K }

// Eval implements Query.
func (e Empty) Eval(I *fact.Instance) (*fact.Relation, error) {
	return I.Dict().NewRelation(e.K), nil
}

// Summary implements Query.
func (e Empty) Summary() *Summary { return emptySummary }

// ExplainPlan implements PlanExplainer; there is nothing to plan.
func (e Empty) ExplainPlan() string { return fmt.Sprintf("empty query: arity %d\n", e.K) }

// Func wraps an arbitrary Go function as a query. This is the
// "computationally complete query language" of Theorem 6(1): any
// partial computable query is expressible. Declared relation reads and
// monotonicity are trusted annotations supplied by the constructor.
type Func struct {
	K        int
	Reads    []string
	Monotone bool
	Name     string
	F        func(I *fact.Instance) (*fact.Relation, error)

	// AdomSensitive marks functions whose result depends on the active
	// domain of the whole instance, beyond the relations in Reads; it
	// disables result caching across unrelated state growth.
	AdomSensitive bool
}

// NewFunc builds a Func query. reads lists the relations f consults;
// it is sorted and deduplicated. The function must depend only on the
// contents of the listed relations (every construction in this
// repository evaluates on a restriction to its reads); a Func whose
// result additionally depends on the ambient active domain must set
// AdomSensitive.
func NewFunc(name string, arity int, reads []string, monotone bool, f func(*fact.Instance) (*fact.Relation, error)) Func {
	rs := dedupSorted(reads)
	return Func{K: arity, Reads: rs, Monotone: monotone, Name: name, F: f}
}

// Arity implements Query.
func (q Func) Arity() int { return q.K }

// Eval implements Query.
func (q Func) Eval(I *fact.Instance) (*fact.Relation, error) {
	r, err := q.F(I)
	if err != nil {
		return nil, fmt.Errorf("query %s: %w", q.Name, err)
	}
	if r.Arity() != q.K {
		return nil, fmt.Errorf("query %s: produced arity %d, declared %d", q.Name, r.Arity(), q.K)
	}
	return r, nil
}

// Summary implements Query. A Func is its declared fields, which stay
// settable after NewFunc (AdomSensitive is set that way), so its
// summary is read off them on each call: every read is positive when
// the function is declared monotone and a guard otherwise, and, since
// an opaque function may produce output from empty reads (the
// emptiness test does), one empty-bodied clause claims no emptiness.
func (q Func) Summary() *Summary {
	s := &Summary{
		Reads:      q.Reads,
		Evidence:   MonotoneEvidence{Blockers: []string{"opaque query without a monotonicity annotation"}},
		RelBounded: !q.AdomSensitive,
		Clauses:    []Clause{{}},
	}
	pol := PolGuard
	if q.Monotone {
		pol = PolPos
		s.Evidence = MonotoneEvidence{Monotone: true, Reasons: []string{"query declares syntactic monotonicity"}}
	}
	for _, r := range q.Reads {
		s.Deps = append(s.Deps, Dep{Rel: r, Polarity: pol, Branch: -1, Where: "declared read (opaque query)"})
	}
	return s
}

func dedupSorted(xs []string) []string {
	if len(xs) == 0 {
		return nil
	}
	cp := append([]string(nil), xs...)
	sort.Strings(cp)
	out := cp[:1]
	for _, x := range cp[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
