package fo

// Static polarity analysis of FO formulas for the CALM analyzer
// (internal/sa): which relations a formula reads positively, under
// negation, or through a construct whose monotonicity is unknown
// (universal quantification over the growing active domain). The
// analysis refines the one-bit IsPositive check in two ways:
//
//   - EffectivelyPositive additionally admits negated (in)equalities:
//     ¬(t1 = t2) compares two FIXED values, so adding facts can never
//     change its truth — inequality-guarded joins are monotone, as
//     package datalog has always recognized for its Neq literals;
//   - RelPolarities reports a per-relation verdict, so a query can be
//     "monotone in R, anti-monotone in T" instead of a single bit —
//     the per-relation refinement the transducer-level analyzer
//     composes across queries.

import (
	"fmt"

	"declnet/internal/query"
)

// truncFormula bounds a formula rendering for witness strings.
func truncFormula(f Formula) string {
	s := f.String()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

// EffectivelyPositive reports whether the formula provably expresses
// a monotone query, together with the reason chain of a positive
// verdict and the blocking positions of a negative one. It extends
// IsPositive by admitting negated (in)equality and negated truth
// constants, which are insensitive to instance growth.
func EffectivelyPositive(f Formula) query.MonotoneEvidence {
	ev := query.MonotoneEvidence{Monotone: true}
	var walk func(Formula)
	walk = func(f Formula) {
		switch g := f.(type) {
		case Atom, Eq, Truth:
		case Not:
			switch g.F.(type) {
			case Eq:
				ev.Reasons = append(ev.Reasons,
					fmt.Sprintf("negated equality %s compares fixed values: monotone", truncFormula(g)))
			case Truth:
				// Constant; trivially monotone.
			default:
				ev.Monotone = false
				ev.Blockers = append(ev.Blockers, "negation "+truncFormula(g))
			}
		case Forall:
			ev.Monotone = false
			ev.Blockers = append(ev.Blockers,
				"universal quantifier "+truncFormula(g)+" ranges over the growing active domain")
		case And:
			for _, sub := range g.Fs {
				walk(sub)
			}
		case Or:
			for _, sub := range g.Fs {
				walk(sub)
			}
		case Exists:
			walk(g.F)
		default:
			ev.Monotone = false
			ev.Blockers = append(ev.Blockers, fmt.Sprintf("unrecognized formula %T", f))
		}
	}
	walk(f)
	if ev.Monotone {
		ev.Reasons = append([]string{"body is a positive existential formula (modulo negated equalities)"}, ev.Reasons...)
	} else {
		ev.Reasons = nil
	}
	return ev
}

// depAccum merges polarity walks into per-(relation, branch) deps.
type depAccum struct {
	deps  []query.Dep
	index map[[2]interface{}]int
}

func newDepAccum() *depAccum {
	return &depAccum{index: map[[2]interface{}]int{}}
}

func (a *depAccum) add(d query.Dep) {
	k := [2]interface{}{d.Rel, d.Branch}
	if i, ok := a.index[k]; ok {
		a.deps[i].Polarity = a.deps[i].Polarity.Join(d.Polarity)
		a.deps[i].Required = a.deps[i].Required || d.Required
		return
	}
	a.index[k] = len(a.deps)
	a.deps = append(a.deps, d)
}

// walkPolarity records every relation of f with the polarity of its
// occurrence context: pol flips across negations (except over
// relation-free subformulas) and collapses to PolGuard under
// universal quantifiers, whose truth additionally depends on the
// ambient active domain.
func walkPolarity(f Formula, pol query.Polarity, branch int, where string, acc *depAccum) {
	switch g := f.(type) {
	case Atom:
		acc.add(query.Dep{Rel: g.Rel, Polarity: pol, Branch: branch,
			Where: where + ": atom " + truncFormula(g)})
	case Eq, Truth:
	case Not:
		walkPolarity(g.F, flip(pol), branch, where, acc)
	case And:
		for _, sub := range g.Fs {
			walkPolarity(sub, pol, branch, where, acc)
		}
	case Or:
		for _, sub := range g.Fs {
			walkPolarity(sub, pol, branch, where, acc)
		}
	case Exists:
		walkPolarity(g.F, pol, branch, where, acc)
	case Forall:
		walkPolarity(g.F, query.PolGuard, branch, where+" (under forall)", acc)
	}
}

func flip(p query.Polarity) query.Polarity {
	switch p {
	case query.PolPos:
		return query.PolNeg
	case query.PolNeg:
		return query.PolPos
	}
	return query.PolGuard
}

// RelPolarities returns the per-relation polarity of the formula:
// PolPos when every occurrence is positive, PolNeg when every
// occurrence is negated, PolGuard for mixed or guard-context reads.
func RelPolarities(f Formula) map[string]query.Polarity {
	acc := newDepAccum()
	walkPolarity(f, query.PolPos, -1, "formula", acc)
	out := make(map[string]query.Polarity, len(acc.deps))
	for _, d := range acc.deps {
		out[d.Rel] = d.Polarity
	}
	return out
}

// QueryDeps implements query.DepAnalyzable: the polarized read
// dependencies of the query, one group per disjunctive branch. The
// atom reads (positive, required) and anti-joins (negative) come from
// the compiled plan itself (plan.Plan.Deps) — the analyzed join is
// exactly the executed join — and each inner query contributes the
// AST polarity walk of the conjunct it stands for.
func (q *Query) QueryDeps() []query.Dep {
	acc := newDepAccum()
	for i := range q.branches {
		b := &q.branches[i]
		for _, d := range b.p.Deps(i) {
			if !b.overlay(d.Rel) {
				acc.add(d)
			}
		}
		for _, s := range b.subs {
			walkPolarity(s.src, query.PolPos, i, fmt.Sprintf("branch %d subquery", i+1), acc)
		}
	}
	return acc.deps
}

// MonotoneEvidence implements query.MonotoneExplainable.
func (q *Query) MonotoneEvidence() query.MonotoneEvidence {
	return EffectivelyPositive(q.Body)
}

// PossiblyNonempty implements query.EmptinessAnalyzable: the query
// can produce a tuple only if some branch can, and a branch cannot
// fire while one of its atoms reads a relation that provably never
// holds a fact. Inner queries and the active domain are conservatively
// satisfiable.
func (q *Query) PossiblyNonempty(populated func(rel string) bool) bool {
	for i := range q.branches {
		ok := true
		for _, a := range q.branches[i].atoms {
			if !populated(a.Rel) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
