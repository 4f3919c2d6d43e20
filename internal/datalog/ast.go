// Package datalog implements a Datalog engine from scratch: parser,
// safety checking, predicate dependency analysis, stratified negation,
// and naive as well as semi-naive bottom-up evaluation.
//
// The paper uses several Datalog fragments as transducer languages:
// plain (monotone) Datalog for the CALM conjecture itself, stratified
// Datalog as the local language of Dedalus, and nonrecursive Datalog
// with negation (equivalent to FO / UCQ¬ compositions) for
// Corollary 14(3). All are supported here; the fragments are
// recognized by IsPositive and IsNonrecursive.
package datalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"declnet/internal/fact"
	"declnet/internal/query"
)

// Term is a Datalog term: a variable or a constant.
type Term struct {
	// Var is nonempty for variables; Const holds a constant otherwise.
	Var   string
	Const fact.Value
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return "'" + string(t.Const) + "'"
}

// V makes a variable term.
func V(name string) Term { return Term{Var: name} }

// C makes a constant term.
func C(v fact.Value) Term { return Term{Const: v} }

// Atom is p(t1,...,tk).
type Atom struct {
	Pred  string
	Terms []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// LiteralKind discriminates body literal forms.
type LiteralKind int

const (
	// LitPos is a positive atom p(t...).
	LitPos LiteralKind = iota
	// LitNeg is a negated atom not p(t...).
	LitNeg
	// LitEq is t1 = t2.
	LitEq
	// LitNeq is t1 != t2.
	LitNeq
)

// Literal is a body literal: a (possibly negated) atom or an
// (in)equality between terms.
type Literal struct {
	Kind LiteralKind
	Atom Atom // for LitPos / LitNeg
	L, R Term // for LitEq / LitNeq
}

func (l Literal) String() string {
	switch l.Kind {
	case LitPos:
		return l.Atom.String()
	case LitNeg:
		return "not " + l.Atom.String()
	case LitEq:
		return l.L.String() + " = " + l.R.String()
	case LitNeq:
		return l.L.String() + " != " + l.R.String()
	}
	return "?"
}

// Pos makes a positive literal.
func Pos(pred string, terms ...Term) Literal {
	return Literal{Kind: LitPos, Atom: Atom{Pred: pred, Terms: terms}}
}

// Neg makes a negated literal.
func Neg(pred string, terms ...Term) Literal {
	return Literal{Kind: LitNeg, Atom: Atom{Pred: pred, Terms: terms}}
}

// EqL makes an equality literal.
func EqL(l, r Term) Literal { return Literal{Kind: LitEq, L: l, R: r} }

// NeqL makes an inequality literal.
func NeqL(l, r Term) Literal { return Literal{Kind: LitNeq, L: l, R: r} }

// Rule is head :- body. An empty body makes the rule a fact schema
// (ground heads only).
type Rule struct {
	Head Atom
	Body []Literal
}

func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Vars returns the variables of the rule's head, sorted.
func (a Atom) Vars() []string {
	set := map[string]bool{}
	for _, t := range a.Terms {
		if t.IsVar() {
			set[t.Var] = true
		}
	}
	return sortedKeys(set)
}

// Program is a finite set of rules. Programs are immutable after
// construction: Rules must not be modified, which lets derived
// analyses (stratification, dependency condensation) be computed once
// and memoized — package dedalus re-evaluates the same program on
// every time slice. The memos are built under sync.Once, so one
// Program may be evaluated concurrently from many goroutines (the
// parallel sharded runtime and the sweep fan-outs do).
type Program struct {
	Rules []Rule

	// memoized analyses (see Stratify, eval and compile.go), built
	// once. planOnce guards the per-rule compiled plans — the compiled
	// query-plan layer's cache, shared by every concurrent evaluation
	// of the program.
	strataOnce   sync.Once
	strata       [][]string
	strataErr    error
	planOnce     sync.Once
	compiled     []*compiledRule
	splitOnce    sync.Once
	stratumRules [][]*compiledRule
	stratumPreds []map[string]bool
	preds        []string
	arities      fact.Schema
	monoOnce     sync.Once
	monoEv       query.MonotoneEvidence
	monoAbsorbed map[litKey]bool
}

// NewProgram builds a program and validates safety and arity
// consistency.
func NewProgram(rules ...Rule) (*Program, error) {
	p := &Program{Rules: rules}
	if err := p.Check(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustProgram is NewProgram panicking on error.
func MustProgram(rules ...Rule) *Program {
	p, err := NewProgram(rules...)
	if err != nil {
		panic(err)
	}
	return p
}

func (p *Program) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}

// Check validates the program: consistent predicate arities and rule
// safety. A rule is safe when every variable occurring in the head, in
// a negated literal, or in an (in)equality occurs in some positive
// body literal.
func (p *Program) Check() error {
	arities := map[string]int{}
	note := func(pred string, n int) error {
		if prev, ok := arities[pred]; ok && prev != n {
			return fmt.Errorf("datalog: predicate %s used with arities %d and %d", pred, prev, n)
		}
		arities[pred] = n
		return nil
	}
	for i, r := range p.Rules {
		if err := note(r.Head.Pred, len(r.Head.Terms)); err != nil {
			return err
		}
		positive := map[string]bool{}
		for _, l := range r.Body {
			if l.Kind == LitPos || l.Kind == LitNeg {
				if err := note(l.Atom.Pred, len(l.Atom.Terms)); err != nil {
					return err
				}
			}
			if l.Kind == LitPos {
				for _, t := range l.Atom.Terms {
					if t.IsVar() {
						positive[t.Var] = true
					}
				}
			}
		}
		// Equalities with one side constant or an already-positive var
		// bind the other side; propagate to fixpoint.
		for changed := true; changed; {
			changed = false
			for _, l := range r.Body {
				if l.Kind != LitEq {
					continue
				}
				lBound := !l.L.IsVar() || positive[l.L.Var]
				rBound := !l.R.IsVar() || positive[l.R.Var]
				if lBound && l.R.IsVar() && !positive[l.R.Var] {
					positive[l.R.Var] = true
					changed = true
				}
				if rBound && l.L.IsVar() && !positive[l.L.Var] {
					positive[l.L.Var] = true
					changed = true
				}
			}
		}
		unsafe := func(t Term) bool { return t.IsVar() && !positive[t.Var] }
		for _, t := range r.Head.Terms {
			if unsafe(t) {
				return fmt.Errorf("datalog: rule %d (%s): unsafe head variable %s", i, r, t.Var)
			}
		}
		for _, l := range r.Body {
			switch l.Kind {
			case LitNeg:
				for _, t := range l.Atom.Terms {
					if unsafe(t) {
						return fmt.Errorf("datalog: rule %d (%s): unsafe variable %s in negation", i, r, t.Var)
					}
				}
			case LitNeq, LitEq:
				if unsafe(l.L) || unsafe(l.R) {
					return fmt.Errorf("datalog: rule %d (%s): unsafe variable in comparison %s", i, r, l)
				}
			}
		}
	}
	return nil
}

// IDB returns the intensional predicates (those occurring in heads),
// sorted.
func (p *Program) IDB() []string {
	set := map[string]bool{}
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
	}
	return sortedKeys(set)
}

// EDB returns the extensional predicates: body predicates that never
// occur in a head, sorted.
func (p *Program) EDB() []string {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	set := map[string]bool{}
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if (l.Kind == LitPos || l.Kind == LitNeg) && !idb[l.Atom.Pred] {
				set[l.Atom.Pred] = true
			}
		}
	}
	return sortedKeys(set)
}

// Preds returns every predicate mentioned in the program, sorted.
func (p *Program) Preds() []string {
	set := map[string]bool{}
	for _, r := range p.Rules {
		set[r.Head.Pred] = true
		for _, l := range r.Body {
			if l.Kind == LitPos || l.Kind == LitNeg {
				set[l.Atom.Pred] = true
			}
		}
	}
	return sortedKeys(set)
}

// Arities returns the arity of every predicate in the program.
func (p *Program) Arities() fact.Schema {
	s := fact.Schema{}
	for _, r := range p.Rules {
		s[r.Head.Pred] = len(r.Head.Terms)
		for _, l := range r.Body {
			if l.Kind == LitPos || l.Kind == LitNeg {
				s[l.Atom.Pred] = len(l.Atom.Terms)
			}
		}
	}
	return s
}

// IsPositive reports whether the program contains no negated literals
// (plain, monotone Datalog). Inequality literals x != y are allowed:
// adding facts never invalidates an inequality between fixed values,
// so they preserve monotonicity.
func (p *Program) IsPositive() bool {
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.Kind == LitNeg {
				return false
			}
		}
	}
	return true
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
