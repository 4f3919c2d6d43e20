package while

// Static monotonicity analysis of while-programs for the CALM analyzer
// (internal/sa), replacing the blanket "while is never monotone"
// verdict. The analysis tracks, per relation name, whether the
// relation's value at the current program point is provably a MONOTONE
// FUNCTION OF THE INPUT INSTANCE:
//
//   - before any assignment, every relation holds its input value —
//     the identity, which is monotone (so the assignment-free program,
//     i.e. the identity query on Out, is monotone);
//   - R := Q preserves the property when Q is a monotone query and
//     every relation it reads is currently monotone (composition of
//     monotone functions);
//   - a while-loop preserves ALL flags when (a) its condition is an
//     effectively positive sentence over currently-monotone relations
//     and (b) every body statement is an inflationary assignment
//     R := R ∪ Q — syntactically, an fo disjunction containing the
//     atom R(head vars) — whose target is currently monotone and whose
//     body is effectively positive over currently-monotone relations.
//     Soundness: for a fixed iteration count k each relation is a
//     monotone function of the input (induction via composition), and
//     inflationary bodies make values increase with k; hence on
//     J ⊇ I the store at step k dominates pointwise, the positive
//     condition stays true at least as long (k_J ≥ k_I), and the value
//     at exit on J contains the value at exit on I. Any loop outside
//     this shape demotes every relation its body assigns to unknown.
//
// The program is reported monotone when the output relation's flag
// survives to the end. The transitive-closure program stays unknown
// (its loop body computes a difference), which the soundness harness
// tracks as a completeness-gap specimen: semantically monotone,
// statically unprovable.

import (
	"fmt"
	"sort"

	"declnet/internal/fo"
	"declnet/internal/query"
)

// relFlag is the per-relation dataflow fact: is the relation's value a
// monotone function of the input at this program point, and why (not).
type relFlag struct {
	mono   bool
	reason string
}

func flagOf(flags map[string]relFlag, rel string) relFlag {
	if f, ok := flags[rel]; ok {
		return f
	}
	return relFlag{mono: true, reason: "relation " + rel + " still holds its input value"}
}

// assignedIn collects every relation assigned anywhere in the block,
// including under nested loops.
func assignedIn(stmts []Stmt, into map[string]bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case Assign:
			into[st.Rel] = true
		case While:
			assignedIn(st.Body, into)
		}
	}
}

// inflationaryOver reports whether the assignment has the shape
// R := R ∪ Q for an fo query — a disjunction (or single atom) with a
// disjunct that is exactly the atom R(v1,...,vk) over the head
// variables in order, so the result always contains the current value
// of R.
func inflationaryOver(st Assign) bool {
	q, ok := st.Q.(*fo.Query)
	if !ok {
		return false
	}
	isSelfAtom := func(f fo.Formula) bool {
		a, ok := f.(fo.Atom)
		if !ok || a.Rel != st.Rel || len(a.Terms) != len(q.Head) {
			return false
		}
		for i, t := range a.Terms {
			if v, isVar := t.(fo.Var); !isVar || v != q.Head[i] {
				return false
			}
		}
		return true
	}
	if isSelfAtom(q.Body) {
		return true
	}
	if or, ok := q.Body.(fo.Or); ok {
		for _, d := range or.Fs {
			if isSelfAtom(d) {
				return true
			}
		}
	}
	return false
}

// monoFlags runs the dataflow over the block, updating flags in place.
func monoFlags(stmts []Stmt, flags map[string]relFlag) {
	for _, s := range stmts {
		switch st := s.(type) {
		case Assign:
			flags[st.Rel] = assignFlag(st, flags)
		case While:
			if ok, why := loopPreserves(st, flags); !ok {
				assigned := map[string]bool{}
				assignedIn(st.Body, assigned)
				for rel := range assigned {
					flags[rel] = relFlag{reason: fmt.Sprintf(
						"relation %s assigned inside a loop that is not provably inflationary (%s)", rel, why)}
				}
			}
			// A qualifying loop preserves every flag: body-assigned
			// relations only ever grow from their (monotone) entry
			// values via monotone queries.
		}
	}
}

func assignFlag(st Assign, flags map[string]relFlag) relFlag {
	sum := st.Q.Summary()
	if ev := sum.Evidence; !ev.Monotone {
		why := "opaque query"
		if len(ev.Blockers) > 0 {
			why = ev.Blockers[0]
		}
		return relFlag{reason: fmt.Sprintf("assignment %s := ... uses a non-monotone query: %s", st.Rel, why)}
	}
	for _, r := range sum.Reads {
		if f := flagOf(flags, r); !f.mono {
			return relFlag{reason: fmt.Sprintf(
				"assignment %s := ... reads %s, which is not provably monotone: %s", st.Rel, r, f.reason)}
		}
	}
	return relFlag{mono: true, reason: fmt.Sprintf(
		"relation %s assigned by a monotone query over monotone relations", st.Rel)}
}

// loopPreserves reports whether the loop provably preserves every
// monotonicity flag (the inflationary-loop rule above).
func loopPreserves(w While, flags map[string]relFlag) (bool, string) {
	condEv := fo.EffectivelyPositive(w.Cond)
	if !condEv.Monotone {
		return false, "loop condition is not effectively positive: " + condEv.Blockers[0]
	}
	for _, r := range fo.RelNames(w.Cond) {
		if f := flagOf(flags, r); !f.mono {
			return false, fmt.Sprintf("loop condition reads %s: %s", r, f.reason)
		}
	}
	for _, s := range w.Body {
		st, ok := s.(Assign)
		if !ok {
			return false, fmt.Sprintf("loop body contains %s", s)
		}
		if !inflationaryOver(st) {
			return false, fmt.Sprintf("body assignment to %s is not of the shape %s := %s ∪ ...",
				st.Rel, st.Rel, st.Rel)
		}
		if f := flagOf(flags, st.Rel); !f.mono {
			return false, fmt.Sprintf("loop grows %s from a non-monotone entry value: %s", st.Rel, f.reason)
		}
		q := st.Q.(*fo.Query)
		if ev := fo.EffectivelyPositive(q.Body); !ev.Monotone {
			return false, fmt.Sprintf("body assignment to %s is not effectively positive: %s",
				st.Rel, ev.Blockers[0])
		}
		for _, r := range q.Summary().Reads {
			if f := flagOf(flags, r); !f.mono {
				return false, fmt.Sprintf("body assignment to %s reads %s: %s", st.Rel, r, f.reason)
			}
		}
	}
	return true, ""
}

// inputReads collects the relations whose INPUT value the block may
// read: reads occurring before definite assignment. Loop bodies are
// walked against a copy of the assigned set (the first iteration reads
// pre-loop values) and assignments under a loop are not definite after
// it (the loop may run zero times).
func inputReads(stmts []Stmt, assigned map[string]bool, reads map[string]string) {
	for _, s := range stmts {
		switch st := s.(type) {
		case Assign:
			for _, r := range st.Q.Summary().Reads {
				if !assigned[r] {
					if _, ok := reads[r]; !ok {
						reads[r] = "read by assignment " + st.String()
					}
				}
			}
			assigned[st.Rel] = true
		case While:
			for _, r := range fo.RelNames(st.Cond) {
				if !assigned[r] {
					if _, ok := reads[r]; !ok {
						reads[r] = fmt.Sprintf("read by loop condition %s", st.Cond)
					}
				}
			}
			inner := map[string]bool{}
			for k, v := range assigned {
				inner[k] = v
			}
			inputReads(st.Body, inner, reads)
		}
	}
}

// summarize builds the expressed query's summary:
//   - the reads are the input relations the query depends on, with
//     witness locations: relations read before definite assignment,
//     plus the output relation when it is not definitely assigned
//     (the program then outputs its input value). Program variables
//     definitely assigned before being read are not reads — the
//     identity program on Out reads exactly {Out};
//   - the monotonicity evidence is the per-relation dataflow's verdict
//     on the output relation;
//   - every read is positive when the whole program is provably
//     monotone (monotone in the input implies monotone in each read
//     relation), a guard otherwise (assignment can invert or erase any
//     dependency);
//   - one empty-bodied clause: no emptiness is claimed.
func (p *Program) summarize() *query.Summary {
	assigned := map[string]bool{}
	reads := map[string]string{}
	inputReads(p.Stmts, assigned, reads)
	if !assigned[p.Out] {
		if _, ok := reads[p.Out]; !ok {
			reads[p.Out] = "output relation, never definitely assigned"
		}
	}
	s := &query.Summary{Clauses: []query.Clause{{}}}
	for r := range reads {
		s.Reads = append(s.Reads, r)
	}
	sort.Strings(s.Reads)

	flags := map[string]relFlag{}
	monoFlags(p.Stmts, flags)
	pol := query.PolGuard
	if out := flagOf(flags, p.Out); out.mono {
		pol = query.PolPos
		s.Evidence = query.MonotoneEvidence{Monotone: true, Reasons: []string{
			"output relation " + p.Out + " is a monotone function of the input: " + out.reason}}
	} else {
		s.Evidence = query.MonotoneEvidence{Blockers: []string{out.reason}}
	}
	for _, r := range s.Reads {
		s.Deps = append(s.Deps, query.Dep{Rel: r, Polarity: pol, Branch: -1, Where: reads[r]})
	}
	return s
}
