package datalog

import (
	"fmt"
	"strings"

	"declnet/internal/fact"
	"declnet/internal/plan"
)

// This file lowers Datalog rules onto the compiled physical plan
// layer (internal/plan). A rule body becomes one plan spec — positive
// literals are join atoms, negated literals anti-probe filters,
// (in)equalities comparison filters (an equality with one unbound
// side compiles into a register assignment, the classical
// equality-binding rule) — compiled ONCE per rule and cached on the
// Program, including the per-literal delta variants that semi-naive
// evaluation pins. Pre-bound variables (the NOW/NEXT timestamps of
// package dedalus) become plan input registers, so temporal rules are
// compiled once and re-fired per time slice with only the register
// values changing.

// compiledRule is one rule lowered to a plan. A compile failure (an
// unsafe rule that escaped Check, e.g. built directly as a Rule
// value) is carried in err and surfaced on the first firing, matching
// the historical runtime-error behaviour.
type compiledRule struct {
	rule Rule
	plan *plan.Plan
	// litAtom maps body literal index → plan atom index (-1 for
	// non-positive literals); semi-naive delta rounds pin through it.
	litAtom  []int
	headPred string
	arity    int
	err      error
}

// compileRule lowers r with the given pre-bound variables (the
// plan's input registers, in order).
func compileRule(r Rule, bound []string) *compiledRule {
	cr := &compiledRule{rule: r, headPred: r.Head.Pred, arity: len(r.Head.Terms)}
	regOf := map[string]int{}
	var regNames []string
	reg := func(v string) int {
		n, ok := regOf[v]
		if !ok {
			n = len(regNames)
			regOf[v] = n
			regNames = append(regNames, v)
		}
		return n
	}
	spec := plan.Spec{Name: r.Head.Pred}
	for _, v := range bound {
		spec.Inputs = append(spec.Inputs, reg(v))
	}
	term := func(t Term) plan.Term {
		if t.IsVar() {
			return plan.Reg(reg(t.Var))
		}
		return plan.Const(t.Const)
	}
	terms := func(ts []Term) []plan.Term {
		out := make([]plan.Term, len(ts))
		for i, t := range ts {
			out[i] = term(t)
		}
		return out
	}
	cr.litAtom = make([]int, len(r.Body))
	for i, l := range r.Body {
		cr.litAtom[i] = -1
		switch l.Kind {
		case LitPos:
			cr.litAtom[i] = len(spec.Atoms)
			spec.Atoms = append(spec.Atoms, plan.Atom{Rel: l.Atom.Pred, Terms: terms(l.Atom.Terms)})
		case LitNeg:
			spec.Filters = append(spec.Filters, plan.Filter{Kind: plan.FilterNotIn, Rel: l.Atom.Pred, Terms: terms(l.Atom.Terms)})
		case LitEq:
			spec.Filters = append(spec.Filters, plan.Filter{Kind: plan.FilterEq, L: term(l.L), R: term(l.R)})
		case LitNeq:
			spec.Filters = append(spec.Filters, plan.Filter{Kind: plan.FilterNeq, L: term(l.L), R: term(l.R)})
		}
	}
	spec.Head = terms(r.Head.Terms)
	spec.NumRegs = len(regNames)
	spec.RegNames = regNames
	p, err := plan.New(spec)
	if err != nil {
		cr.err = fmt.Errorf("datalog: rule %s unschedulable (unsafe rule escaped Check): %w", r, err)
		return cr
	}
	cr.plan = p
	return cr
}

// fire evaluates the rule on I via the compiled plan. If pinLit >= 0,
// that body literal (which must be positive) draws its tuples from
// delta instead of I — the semi-naive pinned firing. args supplies
// the pre-bound variables in compile order.
func (cr *compiledRule) fire(I *fact.Instance, pinLit int, delta *fact.Instance, args []fact.Value) (*fact.Relation, error) {
	if cr.err != nil {
		return nil, cr.err
	}
	out := I.Dict().NewRelation(cr.arity)
	if err := cr.fireInto(I, pinLit, delta, args, out); err != nil {
		return nil, err
	}
	return out, nil
}

// fireInto is fire emitting straight into a sink — semi-naive rounds
// hand it a delta staging sink (fact.Delta.Sink), so the batch
// pipeline's column slabs stage with one sort + merge per firing
// instead of materializing an intermediate head relation and
// re-probing key by key.
func (cr *compiledRule) fireInto(I *fact.Instance, pinLit int, delta *fact.Instance, args []fact.Value, out fact.Sink) error {
	if cr.err != nil {
		return cr.err
	}
	pin := -1
	if pinLit >= 0 {
		pin = cr.litAtom[pinLit]
	}
	if err := cr.plan.Run(I, delta, pin, args, out); err != nil {
		return fmt.Errorf("datalog: rule %s: %w", cr.rule, err)
	}
	return nil
}

// compiledRules returns (building on first use, Once-guarded so
// concurrent evaluations of a shared program are safe) the compiled
// plan of every rule.
func (p *Program) compiledRules() []*compiledRule {
	p.planOnce.Do(func() {
		p.compiled = make([]*compiledRule, len(p.Rules))
		for i, r := range p.Rules {
			p.compiled[i] = compileRule(r, nil)
		}
	})
	return p.compiled
}

// CompiledRule is a single rule lowered onto the physical plan layer
// with a fixed list of pre-bound variables. Package dedalus compiles
// its inductive and asynchronous rules once — NOW and NEXT as input
// registers — and re-fires them per time slice. Safe for concurrent
// use after construction.
type CompiledRule struct {
	cr    *compiledRule
	bound []string
}

// CompileRule lowers r with the given variables pre-bound; Fire
// supplies their values in the same order.
func CompileRule(r Rule, bound ...string) (*CompiledRule, error) {
	cr := compileRule(r, bound)
	if cr.err != nil {
		return nil, cr.err
	}
	return &CompiledRule{cr: cr, bound: append([]string(nil), bound...)}, nil
}

// Rule returns the source rule.
func (c *CompiledRule) Rule() Rule { return c.cr.rule }

// Fire evaluates the compiled rule against an instance and returns
// the derived head facts. args supplies the pre-bound variables in
// CompileRule order.
func (c *CompiledRule) Fire(I *fact.Instance, args ...fact.Value) ([]fact.Fact, error) {
	if len(args) != len(c.bound) {
		return nil, fmt.Errorf("datalog: rule %s: got %d bound values for %v", c.cr.rule, len(args), c.bound)
	}
	out, err := c.cr.fire(I, -1, nil, args)
	if err != nil {
		return nil, err
	}
	return relFacts(c.cr.headPred, out), nil
}

func relFacts(pred string, r *fact.Relation) []fact.Fact {
	if r.Empty() {
		return nil
	}
	out := make([]fact.Fact, 0, r.Len())
	r.Each(func(t fact.Tuple) bool {
		out = append(out, fact.Fact{Rel: pred, Args: t})
		return true
	})
	return out
}

// ExplainPlan implements query.PlanExplainer: the compiled plan of
// every rule — chosen literal order, probe columns, filter placement
// — plus the delta-pinned variant for every positive body literal
// over a predicate of the rule's own stratum (the pins semi-naive
// evaluation actually fires).
func (q *Query) ExplainPlan() string {
	var b strings.Builder
	fmt.Fprintf(&b, "datalog query [%s], %d rules\n", q.Ans, len(q.Program.Rules))
	strata, err := q.Program.Stratify()
	if err != nil {
		fmt.Fprintf(&b, "  <unstratifiable: %v>\n", err)
		return b.String()
	}
	stratumOf := map[string]int{}
	for i, stratum := range strata {
		for _, pred := range stratum {
			stratumOf[pred] = i
		}
	}
	for _, cr := range q.Program.compiledRules() {
		fmt.Fprintf(&b, "rule %s\n", cr.rule)
		if cr.err != nil {
			fmt.Fprintf(&b, "  <unschedulable: %v>\n", cr.err)
			continue
		}
		b.WriteString(cr.plan.Explain(-1))
		for j, l := range cr.rule.Body {
			if l.Kind != LitPos {
				continue
			}
			// Only in-stratum (IDB) literals are ever pinned by the
			// semi-naive rounds; EDB predicates are absent from the
			// strata and must not masquerade as stratum 0.
			ls, lok := stratumOf[l.Atom.Pred]
			hs, hok := stratumOf[cr.headPred]
			if !lok || !hok || ls != hs {
				continue
			}
			fmt.Fprintf(&b, "delta pin %s:\n", l.Atom)
			b.WriteString(cr.plan.Explain(cr.litAtom[j]))
		}
	}
	return b.String()
}
