package datalog

// Static polarity analysis of Datalog programs for the CALM analyzer
// (internal/sa). Two refinements over the one-bit IsPositive check:
//
//  1. Complement absorption. A negated literal `not p(t̄)` in a rule
//     with head h(s̄) is semantically removable when p is extensional
//     (never re-derived by the program) and the program also contains
//     an absorber rule h(s̄') :- p(t̄') whose single positive literal
//     unifies with the negated one under a substitution σ with
//     σ(t̄') = t̄ and σ(s̄') = s̄. Then every extra firing of the rule
//     without the negation — a binding ν where p(ν(t̄)) DOES hold —
//     derives a fact h(ν(s̄)) the absorber already derives from
//     p(ν(t̄)), so the least model is unchanged and equals that of the
//     program with the literal deleted. A program whose every negated
//     literal is absorbed therefore computes the same result as a
//     positive program and is monotone. The canonical instance is
//     union-with-difference:
//
//         ans(X) :- a(X).
//         ans(X) :- b(X), not a(X).      -- a ∪ (b ∖ a) = a ∪ b
//
//  2. Per-EDB-relation polarity. The answer predicate's dependency on
//     each extensional relation is the path product of literal
//     polarities through the rule graph (negation composes: the
//     complement of a complement is positive), joined over all paths.
//     A query can thus be "monotone in a, anti-monotone in b" instead
//     of carrying a single bit.

import (
	"fmt"

	"declnet/internal/query"
)

// absorbs reports whether absorber — which must be of the shape
// h(s̄') :- p(t̄') with a single positive literal — subsumes the extra
// derivations a rule with head terms headTerms would gain by dropping
// its negated literal over negTerms: a substitution σ on absorber's
// variables with σ(t̄') = negTerms and σ(s̄') = headTerms.
func absorbs(absorber Rule, headTerms, negTerms []Term) bool {
	if len(absorber.Body) != 1 || absorber.Body[0].Kind != LitPos {
		return false
	}
	sigma := map[string]Term{}
	bind := func(pat, tgt Term) bool {
		if !pat.IsVar() {
			return !tgt.IsVar() && pat.Const == tgt.Const
		}
		if prev, ok := sigma[pat.Var]; ok {
			return prev == tgt
		}
		sigma[pat.Var] = tgt
		return true
	}
	for i, pt := range absorber.Body[0].Atom.Terms {
		if !bind(pt, negTerms[i]) {
			return false
		}
	}
	for i, st := range absorber.Head.Terms {
		if !bind(st, headTerms[i]) {
			return false
		}
	}
	return true
}

// litKey identifies a body literal as (rule index, literal index).
type litKey struct{ rule, lit int }

// absorptions returns the set of negated literals removable by
// complement absorption, with one reason string per removal.
func (p *Program) absorptions() (map[litKey]bool, []string) {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	absorbed := map[litKey]bool{}
	var reasons []string
	for ri, r := range p.Rules {
		for li, l := range r.Body {
			if l.Kind != LitNeg {
				continue
			}
			if idb[l.Atom.Pred] {
				continue // p re-derived by the program: not removable
			}
			for ai, a := range p.Rules {
				if ai == ri || a.Head.Pred != r.Head.Pred ||
					len(a.Body) != 1 || a.Body[0].Kind != LitPos ||
					a.Body[0].Atom.Pred != l.Atom.Pred {
					continue
				}
				if absorbs(a, r.Head.Terms, l.Atom.Terms) {
					absorbed[litKey{ri, li}] = true
					reasons = append(reasons, fmt.Sprintf(
						"rule %d: literal %s over extensional %s absorbed by rule %d (%s)",
						ri, l, l.Atom.Pred, ai, a))
					break
				}
			}
		}
	}
	return absorbed, reasons
}

// MonotoneEvidence reports whether the program provably computes a
// monotone mapping from EDB instances to its least (stratified) model:
// either it is positive outright, or every negated literal is removable
// by complement absorption, making it equivalent to a positive program.
func (p *Program) MonotoneEvidence() query.MonotoneEvidence {
	p.monoOnce.Do(func() {
		absorbed, reasons := p.absorptions()
		ev := query.MonotoneEvidence{Monotone: true}
		for ri, r := range p.Rules {
			for li, l := range r.Body {
				if l.Kind != LitNeg || absorbed[litKey{ri, li}] {
					continue
				}
				ev.Monotone = false
				ev.Blockers = append(ev.Blockers,
					fmt.Sprintf("rule %d: unabsorbed negation %s", ri, l))
			}
		}
		if ev.Monotone {
			if len(reasons) == 0 {
				ev.Reasons = []string{"positive program (least-fixpoint semantics is monotone)"}
			} else {
				ev.Reasons = append([]string{
					"equivalent to a positive program: every negation absorbed"}, reasons...)
			}
		}
		p.monoAbsorbed = absorbed
		p.monoEv = ev
	})
	return p.monoEv
}

// EffectivelyPositive reports whether the program is positive or
// reducible to a positive program by complement absorption.
func (p *Program) EffectivelyPositive() bool { return p.MonotoneEvidence().Monotone }

// polSet is a subset of {pos, neg, guard} — the possible polarities a
// dependency path can carry.
type polSet uint8

const (
	polSetPos polSet = 1 << iota
	polSetNeg
	polSetGuard
)

// compose applies one edge of polarity e to every path polarity in s.
func (s polSet) compose(e polSet) polSet {
	var out polSet
	if s&polSetGuard != 0 || e&polSetGuard != 0 {
		out |= polSetGuard
	}
	if s&polSetPos != 0 {
		out |= e & (polSetPos | polSetNeg)
	}
	if s&polSetNeg != 0 {
		if e&polSetPos != 0 {
			out |= polSetNeg
		}
		if e&polSetNeg != 0 {
			out |= polSetPos
		}
	}
	return out
}

func (s polSet) polarity() query.Polarity {
	switch s {
	case polSetPos:
		return query.PolPos
	case polSetNeg:
		return query.PolNeg
	}
	return query.PolGuard
}

// relPolarities computes, for the given answer predicate, the combined
// polarity of its dependency on every reachable predicate: the join
// over all rule-graph paths of the product of literal polarities along
// the path. Absorbed negations count as deleted (the absorber supplies
// the positive read).
func (p *Program) relPolarities(ans string) map[string]polSet {
	ev := p.MonotoneEvidence() // forces monoAbsorbed
	_ = ev
	pol := map[string]polSet{ans: polSetPos}
	for changed := true; changed; {
		changed = false
		for ri, r := range p.Rules {
			from, ok := pol[r.Head.Pred]
			if !ok {
				continue
			}
			for li, l := range r.Body {
				var edge polSet
				switch l.Kind {
				case LitPos:
					edge = polSetPos
				case LitNeg:
					if p.monoAbsorbed[litKey{ri, li}] {
						continue
					}
					edge = polSetNeg
				default:
					continue // (in)equalities read no relation
				}
				next := pol[l.Atom.Pred] | from.compose(edge)
				if next != pol[l.Atom.Pred] {
					pol[l.Atom.Pred] = next
					changed = true
				}
			}
		}
	}
	return pol
}

// summarize builds the query's summary:
//   - the reads are the extensional predicates the program reads, and
//     the monotonicity evidence is the program's;
//   - the deps give the polarity of the answer predicate's dependency
//     on each extensional relation it reaches, composed through the
//     rule graph;
//   - evaluation restricts the input to the program's extensional
//     predicates, so the result depends on nothing else: rel-bounded;
//   - each rule is one emptiness clause, which needs a fact in every
//     predicate of a positive body literal (negations and comparisons
//     need no facts; fact rules need nothing), and the query's result
//     is the answer predicate.
func (q *Query) summarize() *query.Summary {
	s := &query.Summary{
		Reads:      q.Program.EDB(),
		Evidence:   q.Program.MonotoneEvidence(),
		RelBounded: true,
		Clauses:    []query.Clause{{Body: []string{q.Ans}}},
	}
	pol := q.Program.relPolarities(q.Ans)
	for _, e := range s.Reads { // sorted
		ps, ok := pol[e]
		if !ok {
			continue // not reachable from the answer predicate
		}
		s.Deps = append(s.Deps, query.Dep{
			Rel:      e,
			Polarity: ps.polarity(),
			Branch:   -1,
			Where:    fmt.Sprintf("datalog program, dependency %s →%s %s", q.Ans, ps.polarity(), e),
		})
	}
	for _, r := range q.Program.Rules {
		c := query.Clause{Head: r.Head.Pred}
		for _, l := range r.Body {
			if l.Kind == LitPos {
				c.Body = append(c.Body, l.Atom.Pred)
			}
		}
		s.Clauses = append(s.Clauses, c)
	}
	return s
}
