package query

// This file is the extraction contract between the concrete query
// languages (fo, datalog, while, opaque Funcs) and their consumers,
// the transducer runtime and the static CALM analyzer (internal/sa):
// every query carries one immutable Summary, built once by its
// language. Its reads are *polarized dependencies* — which relation,
// read positively, under negation, or through an opaque guard — that
// the analyzer composes into the predicate dependency graph of a
// whole transducer to derive monotonicity, stratification and
// emptiness verdicts with witnesses. Opaque queries summarize soundly:
// every declared read is a guard unless the query is declared
// monotone, and no emptiness is claimed.

import "sort"

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
	// Where locates the occurrence for witnesses ("branch 2, atom
	// S(x,y)"; "rule 1, literal not a(X)").
	Where string
}

func (d Dep) String() string { return d.Polarity.String() + d.Rel }

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

// Summary is a query's static description: everything the transducer
// runtime and the static analyzer need to know about it without
// evaluating it. Each language builds it once, when the query is made
// (fo.NewQuery, datalog.NewQuery, while.New, Compose); it is shared,
// and callers must not modify it.
type Summary struct {
	// Reads lists the relations the query may read, sorted. It is the
	// basis of the syntactic obliviousness check (a transducer is
	// oblivious if no query mentions Id or All).
	Reads []string
	// Deps are the polarized read dependencies, one entry per
	// (relation, branch) occurrence group.
	Deps []Dep
	// Evidence is the monotonicity verdict with its reason chain.
	Evidence MonotoneEvidence
	// RelBounded marks a result that depends only on the contents of
	// the relations in Reads — not on the active domain of the rest of
	// the evaluated instance. Such a result stays valid as long as the
	// read relations are unchanged, however the rest of the instance
	// grows; the incremental transducer firing keeps cached results
	// across unrelated state changes on it.
	RelBounded bool
	// Delta marks EvalDelta (DeltaEvaluable) as exact for the query.
	Delta bool
	// Clauses are the Horn clauses of the emptiness analysis; see
	// MayProduce.
	Clauses []Clause
}

// Clause is one Horn clause Head ← Body of the emptiness analysis:
// Head can hold a fact only if every relation of Body does, and then
// it may. The empty Head stands for the query's own result; other
// heads name intermediate relations the query derives (Datalog's
// intensional predicates). An FO branch or a Datalog rule keeps its
// positive atoms as Body: negations and comparisons need no facts.
type Clause struct {
	Head string
	Body []string
}

// MayProduce reports whether the query could produce a tuple on SOME
// instance whose nonempty relations all satisfy populated. False is a
// proof of emptiness; true is no claim. It is the least fixpoint of
// the clauses: a relation some clause derives holds a fact once one of
// its clauses fires, any other relation when populated accepts it.
func (s *Summary) MayProduce(populated func(rel string) bool) bool {
	fired := make([]bool, len(s.Clauses))
	holds := func(rel string) bool {
		derived := false
		for i, c := range s.Clauses {
			if c.Head == rel {
				if fired[i] {
					return true
				}
				derived = true
			}
		}
		return !derived && populated(rel)
	}
	for changed := true; changed; {
		changed = false
		for i, c := range s.Clauses {
			if fired[i] {
				continue
			}
			ok := true
			for _, r := range c.Body {
				if !holds(r) {
					ok = false
					break
				}
			}
			if ok {
				if c.Head == "" {
					return true
				}
				fired[i], changed = true, true
			}
		}
	}
	return false
}

// Mentions reports whether the query reads any of the given relations.
func (s *Summary) Mentions(rels ...string) bool {
	for _, r := range rels {
		i := sort.SearchStrings(s.Reads, r)
		if i < len(s.Reads) && s.Reads[i] == r {
			return true
		}
	}
	return false
}
