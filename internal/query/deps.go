package query

// This file is the extraction contract between the concrete query
// languages (fo, datalog, while, opaque Funcs) and the static
// CALM analyzer (internal/sa): a query exposes its reads as *polarized
// dependencies* — which relation, read positively, under negation, or
// through an opaque guard — instead of the flat name list of Rels().
// The analyzer composes these per-query dependencies into the
// predicate dependency graph of a whole transducer and derives
// monotonicity, stratification and emptiness verdicts with witnesses.
//
// Everything here is OPTIONAL for a Query implementation: DepsOf,
// ExplainMonotone and PossiblyNonempty fall back to sound conservative
// answers derived from Rels() and SyntacticallyMonotone(), so opaque
// queries degrade to "reads everything through a guard" rather than
// breaking the analysis.

import "fmt"

// Polarity classifies how a query's output depends on a read relation.
type Polarity int8

const (
	// PolPos: the output can only grow as the relation grows
	// (positive atom occurrence, monotone composition).
	PolPos Polarity = iota
	// PolNeg: the occurrence is under a negation — growing the
	// relation can shrink the output.
	PolNeg
	// PolGuard: the dependency runs through a construct whose
	// monotonicity is unknown (universal quantifier, aggregate-like
	// condition, opaque Go function). Sound reading: anything may
	// happen when the relation grows.
	PolGuard
)

func (p Polarity) String() string {
	switch p {
	case PolPos:
		return "+"
	case PolNeg:
		return "-"
	case PolGuard:
		return "?"
	}
	return "!"
}

// Join returns the combined polarity of two occurrences of the same
// relation: agreeing occurrences keep their sign, disagreeing ones
// degrade to PolGuard (the top of the polarity lattice).
func (p Polarity) Join(q Polarity) Polarity {
	if p == q {
		return p
	}
	return PolGuard
}

// Temporality classifies WHEN a dependency acts, for temporal
// languages (Dedalus §8): within the same time slice, at the next
// timestamp, or at an arbitrary later timestamp.
type Temporality int8

const (
	// TempNow: same-timestamp (deductive) dependency.
	TempNow Temporality = iota
	// TempNext: successor-timestamp (inductive) dependency.
	TempNext
	// TempAsync: arbitrary-later-timestamp (async) dependency.
	TempAsync
)

func (t Temporality) String() string {
	switch t {
	case TempNow:
		return "now"
	case TempNext:
		return "next"
	case TempAsync:
		return "async"
	}
	return "?"
}

// Dep is one polarized read dependency of a query.
type Dep struct {
	// Rel is the relation read.
	Rel string
	// Polarity is the combined polarity of all occurrences this Dep
	// stands for.
	Polarity Polarity
	// Temporality is TempNow except for dedalus-derived dependencies.
	Temporality Temporality
	// Branch groups dependencies by disjunct of the query (fo branch,
	// datalog rule); -1 when the query has no disjunctive structure.
	Branch int
	// Required marks a positive dependency the branch cannot fire
	// without: if Rel is empty the branch derives nothing. The
	// provably-empty analysis keys off this.
	Required bool
	// Where locates the occurrence for witnesses ("branch 2, atom
	// S(x,y)"; "rule 1, literal not a(X)").
	Where string
}

func (d Dep) String() string {
	req := ""
	if d.Required {
		req = " (required)"
	}
	return fmt.Sprintf("%s%s%s", d.Polarity, d.Rel, req)
}

// DepAnalyzable is implemented by queries that can report polarized
// dependencies. DepsOf is the accessor with the conservative fallback.
type DepAnalyzable interface {
	Query

	// QueryDeps returns the polarized read dependencies, one entry
	// per (relation, branch) occurrence group.
	QueryDeps() []Dep
}

// DepsOf returns the polarized dependencies of any query. Queries not
// implementing DepAnalyzable degrade soundly: every read is reported
// as PolPos when the query declares syntactic monotonicity (monotone
// in every read, by definition) and PolGuard otherwise.
func DepsOf(q Query) []Dep {
	if q == nil {
		return nil
	}
	if da, ok := q.(DepAnalyzable); ok {
		return da.QueryDeps()
	}
	pol := PolGuard
	if q.SyntacticallyMonotone() {
		pol = PolPos
	}
	deps := make([]Dep, 0, len(q.Rels()))
	for _, r := range q.Rels() {
		deps = append(deps, Dep{Rel: r, Polarity: pol, Branch: -1, Where: "declared read (opaque query)"})
	}
	return deps
}

// MonotoneEvidence is a monotonicity verdict with its reason chain.
// Monotone=true is a PROOF obligation — the soundness harness checks
// that no semantically refutable query ever carries it. Monotone=false
// means "not proved", never "proved non-monotone"; Blockers lists the
// positions that stopped the proof.
type MonotoneEvidence struct {
	Monotone bool
	// Reasons justifies a positive verdict (one entry per applied
	// rule, e.g. "negation not a(X) absorbed by rule 0: ans(X) :- a(X)").
	Reasons []string
	// Blockers lists, for a negative verdict, the positions that
	// blocked the proof ("rule 1: literal not a(X)").
	Blockers []string
}

// MonotoneExplainable is implemented by queries that can explain
// their monotonicity verdict.
type MonotoneExplainable interface {
	Query

	// MonotoneEvidence reports the monotonicity verdict with reasons.
	// It must agree with SyntacticallyMonotone().
	MonotoneEvidence() MonotoneEvidence
}

// ExplainMonotone returns q's monotonicity evidence, synthesizing a
// minimal chain for queries that cannot explain themselves.
func ExplainMonotone(q Query) MonotoneEvidence {
	if q == nil {
		return MonotoneEvidence{Monotone: true, Reasons: []string{"absent query defaults to the empty query"}}
	}
	if me, ok := q.(MonotoneExplainable); ok {
		return me.MonotoneEvidence()
	}
	if q.SyntacticallyMonotone() {
		return MonotoneEvidence{Monotone: true, Reasons: []string{"query declares syntactic monotonicity"}}
	}
	return MonotoneEvidence{Blockers: []string{"opaque query without a monotonicity annotation"}}
}

// EmptinessAnalyzable is implemented by queries that can prove
// emptiness of their result under an assumption about which relations
// can ever hold facts.
type EmptinessAnalyzable interface {
	Query

	// PossiblyNonempty reports whether the query could produce a
	// tuple on SOME instance whose nonempty relations all satisfy
	// populated. False is a proof of emptiness; true is no claim.
	PossiblyNonempty(populated func(rel string) bool) bool
}

// MayProduce reports whether q could produce output when only the
// relations accepted by populated may hold facts. Conservative
// fallback: true (no emptiness claim) — note that opaque queries can
// produce output from EMPTY reads (the emptiness test does), so
// a reads-based fallback would be unsound.
func MayProduce(q Query, populated func(rel string) bool) bool {
	if q == nil {
		return false // missing query defaults to Empty
	}
	if ea, ok := q.(EmptinessAnalyzable); ok {
		return ea.PossiblyNonempty(populated)
	}
	if _, isEmpty := q.(Empty); isEmpty {
		return false
	}
	return true
}
