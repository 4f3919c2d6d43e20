package fo

import (
	"fmt"
	"strings"

	"declnet/internal/fact"
	"declnet/internal/plan"
)

// This file lowers the common shape of transducer queries —
// disjunctions of positive existential conjunctions of atoms, possibly
// with residual guard conjuncts — onto the compiled physical plan
// layer (internal/plan). Each conforming branch is compiled ONCE, at
// NewQuery time, into a join plan executed over dense register slots;
// the plan caches its join schedule (and the per-pinned-atom delta
// schedules that EvalDelta needs) across evaluations. Branches that do
// not fit the shape (negation, equality, universal quantification
// outside a guarded position) fall back to the generic active-domain
// evaluator per branch. The semantics is unchanged: positive
// existential formulas only ever bind variables to values occurring in
// relations, which are a subset of the active domain.

// branch is one disjunct of the decomposed formula, in one of three
// shapes: a conjunction of positive atoms (fast: atoms only), a
// guarded conjunction (atoms plus residual conjuncts whose free
// variables the atoms bind — joined, then the residuals are checked
// per binding, a semi-join), or an arbitrary formula (slow).
type branch struct {
	atoms []Atom
	// guard holds residual conjuncts with free variables (checked per
	// join binding); guardClosed holds closed residuals (sentences),
	// hoisted out of the join and checked once per evaluation.
	guard       []Formula
	guardClosed []Formula
	// eqs holds residual (in)equality conjuncts over atom-bound
	// variables, lowered to plan-level equality/inequality filter ops
	// instead of guard callbacks — the batch pipeline runs them as
	// vectorized column filters, so cycles-class queries (x = z under
	// exists) stay columnar.
	eqs  []eqResidual
	slow Formula

	// p is the compiled join plan for fast and guarded branches whose
	// atoms bind the head; nil forces the enumeration fallback. Guard
	// conjuncts appear in the plan as guard filter ops indexed into
	// guard; guardVars/guardRegs map each guard's free variables to
	// the plan's registers.
	p         *plan.Plan
	guardVars [][]Var
	guardRegs [][]int
}

// eqResidual is one residual (in)equality conjunct of a guarded
// branch: the equality, negated when neq is set (x ≠ z parses as
// ¬(x = z)).
type eqResidual struct {
	eq  Eq
	neq bool
}

// formula reconstructs the conjunct, for fallback evaluation and
// absorption into an enclosing conjunction.
func (e eqResidual) formula() Formula {
	if e.neq {
		return Not{F: e.eq}
	}
	return e.eq
}

// residualEq recognizes an (in)equality conjunct: t1 = t2 or its
// negation. ok is false for any other shape.
func residualEq(f Formula) (eq Eq, neq bool, ok bool) {
	switch g := f.(type) {
	case Eq:
		return g, false, true
	case Not:
		if e, isEq := g.F.(Eq); isEq {
			return e, true, true
		}
	}
	return Eq{}, false, false
}

// normalizeBranches flattens a formula into disjunctive branches.
// It returns ok=false when the whole formula is one slow branch and
// splitting gained nothing.
func normalizeBranches(f Formula) []branch {
	switch g := f.(type) {
	case Or:
		var out []branch
		for _, sub := range g.Fs {
			out = append(out, normalizeBranches(sub)...)
		}
		return out
	case Atom:
		return []branch{{atoms: []Atom{g}}}
	case And:
		// Fast when every conjunct is itself a pure conjunction of
		// atoms (no disjunction distribution, to avoid blowup);
		// conjuncts of any other shape become guards of the atom join
		// when the atoms bind all their free variables.
		var atoms []Atom
		var guard []Formula
		for _, sub := range g.Fs {
			bs := normalizeBranches(sub)
			if len(bs) != 1 || bs[0].slow != nil {
				guard = append(guard, sub)
				continue
			}
			// Absorb the sub-branch's atoms AND its guards (including
			// lowered (in)equalities, reconstructed as formulas so they
			// re-classify against the combined atom set) — dropping a
			// nested guard would derive tuples the formula forbids.
			atoms = append(atoms, bs[0].atoms...)
			guard = append(guard, bs[0].guard...)
			guard = append(guard, bs[0].guardClosed...)
			for _, e := range bs[0].eqs {
				guard = append(guard, e.formula())
			}
		}
		if len(guard) == 0 {
			return []branch{{atoms: atoms}}
		}
		if len(atoms) > 0 {
			bound := map[Var]bool{}
			for _, a := range atoms {
				for _, t := range a.Terms {
					if v, ok := t.(Var); ok {
						bound[v] = true
					}
				}
			}
			guarded := true
			for _, gf := range guard {
				for _, v := range FreeVars(gf) {
					if !bound[v] {
						guarded = false
						break
					}
				}
			}
			if guarded {
				b := branch{atoms: atoms}
				for _, gf := range guard {
					if len(FreeVars(gf)) == 0 {
						b.guardClosed = append(b.guardClosed, gf)
						continue
					}
					if eq, neq, ok := residualEq(gf); ok {
						// Atom-bound (in)equalities become plan filter
						// ops, not guard callbacks.
						b.eqs = append(b.eqs, eqResidual{eq: eq, neq: neq})
						continue
					}
					b.guard = append(b.guard, gf)
				}
				return []branch{b}
			}
		}
		return []branch{{slow: f}}
	case Exists:
		bs := normalizeBranches(g.F)
		if len(bs) == 1 && bs[0].slow == nil {
			// Existential variables are simply projected away by the
			// join (they are not head variables).
			return bs
		}
		return []branch{{slow: f}}
	default:
		return []branch{{slow: f}}
	}
}

func atomsToFormulas(atoms []Atom) []Formula {
	fs := make([]Formula, len(atoms))
	for i, a := range atoms {
		fs[i] = a
	}
	return fs
}

// headBoundByAtoms reports whether every head variable occurs in some
// atom, the condition for the join to produce safe head tuples.
func headBoundByAtoms(head []Var, atoms []Atom) bool {
	bound := map[Var]bool{}
	for _, a := range atoms {
		for _, t := range a.Terms {
			if v, ok := t.(Var); ok {
				bound[v] = true
			}
		}
	}
	for _, h := range head {
		if !bound[h] {
			return false
		}
	}
	return true
}

// compileBranch lowers a fast or guarded branch whose atoms bind the
// head into a physical join plan: a fresh register numbering over the
// branch's variables, one plan atom per branch atom (in the same
// order, so EvalDelta can pin by atom index), and one guard filter op
// per residual conjunct. A nil return keeps the branch on the
// enumeration fallback.
func compileBranch(name string, head []Var, b *branch) {
	if b.slow != nil || !headBoundByAtoms(head, b.atoms) {
		return
	}
	regOf := map[Var]int{}
	var regNames []string
	reg := func(v Var) int {
		r, ok := regOf[v]
		if !ok {
			r = len(regNames)
			regOf[v] = r
			regNames = append(regNames, string(v))
		}
		return r
	}
	spec := plan.Spec{Name: name}
	for _, a := range b.atoms {
		pa := plan.Atom{Rel: a.Rel, Terms: make([]plan.Term, len(a.Terms))}
		for i, t := range a.Terms {
			switch x := t.(type) {
			case Var:
				pa.Terms[i] = plan.Reg(reg(x))
			case Const:
				pa.Terms[i] = plan.Const(fact.Value(x))
			default:
				return
			}
		}
		spec.Atoms = append(spec.Atoms, pa)
	}
	eqTerm := func(t Term) (plan.Term, bool) {
		switch x := t.(type) {
		case Var:
			r, ok := regOf[x]
			if !ok {
				// Cannot happen for guarded branches (the atoms bind
				// every residual variable); bail to the fallback if it
				// does.
				return plan.Term{}, false
			}
			return plan.Reg(r), true
		case Const:
			return plan.Const(fact.Value(x)), true
		default:
			return plan.Term{}, false
		}
	}
	for _, e := range b.eqs {
		l, lok := eqTerm(e.eq.L)
		r, rok := eqTerm(e.eq.R)
		if !lok || !rok {
			return
		}
		kind := plan.FilterEq
		if e.neq {
			kind = plan.FilterNeq
		}
		spec.Filters = append(spec.Filters, plan.Filter{Kind: kind, L: l, R: r})
	}
	for gi, g := range b.guard {
		vars := FreeVars(g)
		regs := make([]int, len(vars))
		for i, v := range vars {
			r, ok := regOf[v]
			if !ok {
				// Cannot happen for guarded branches (the atoms bind
				// every guard variable); bail to the fallback if it does.
				b.guardVars, b.guardRegs = nil, nil
				return
			}
			regs[i] = r
		}
		spec.Filters = append(spec.Filters, plan.Filter{Kind: plan.FilterGuard, Regs: regs, Guard: gi})
		b.guardVars = append(b.guardVars, vars)
		b.guardRegs = append(b.guardRegs, regs)
	}
	spec.Head = make([]plan.Term, len(head))
	for i, h := range head {
		spec.Head[i] = plan.Reg(regOf[h])
	}
	spec.NumRegs = len(regNames)
	spec.RegNames = regNames
	p, err := plan.New(spec)
	if err != nil {
		b.guardVars, b.guardRegs = nil, nil
		return
	}
	b.p = p
}

// formula reconstructs the branch as a formula, for the enumeration
// fallback.
func (b branch) formula() Formula {
	if b.slow != nil {
		return b.slow
	}
	fs := atomsToFormulas(b.atoms)
	for _, e := range b.eqs {
		fs = append(fs, e.formula())
	}
	fs = append(fs, b.guard...)
	fs = append(fs, b.guardClosed...)
	return And{Fs: fs}
}

// guardFunc builds the plan guard hook for a branch: residual
// conjuncts are evaluated by the generic evaluator under an
// environment refreshed from the register file. One environment map
// is reused across rows and guards — each guard only reads its own
// free variables, which are overwritten before every call.
func (q *Query) guardFunc(b branch, I *fact.Instance, adomOf func() []fact.Value) plan.GuardFunc {
	if len(b.guard) == 0 {
		return nil
	}
	env := make(map[Var]fact.Value, 8)
	return func(gi int, regs []fact.Value) (bool, error) {
		for k, v := range b.guardVars[gi] {
			env[v] = regs[b.guardRegs[gi][k]]
		}
		return eval(b.guard[gi], I, adomOf(), env)
	}
}

// evalBranch adds the branch's derivations on I to out: the compiled
// plan (an index-driven join with guard filtering) when the branch has
// that shape and the atoms bind the head, active-domain enumeration
// otherwise.
func (q *Query) evalBranch(b branch, I *fact.Instance, adomOf func() []fact.Value, out *fact.Relation) error {
	if b.p != nil {
		// Closed guards are independent of the join bindings: check
		// them once, and drop the whole branch on failure.
		for _, g := range b.guardClosed {
			ok, err := eval(g, I, adomOf(), map[Var]fact.Value{})
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		return b.p.Run(I, nil, -1, nil, q.guardFunc(b, I, adomOf), out)
	}
	return q.enumerate(I, adomOf(), b.formula(), out)
}

// CanDelta reports whether EvalDelta is exact for this query: the
// branch decomposition exists and every branch is either a positive
// conjunction of atoms (delta-joinable) or a positive formula (safe to
// re-evaluate in full, since positive formulas are monotone). It
// implements query.DeltaEvaluable.
func (q *Query) CanDelta() bool { return q.deltaOK }

// EvalDelta returns derivations of the query that may involve at least
// one fact of delta, evaluated against full ∪ delta. full must either
// contain delta or hold none of delta's relations (a transducer state
// and the messages it receives, whose schemas are disjoint); either
// way the union is never materialized for join branches. For CanDelta
// queries the result is exact in the semi-naive sense:
//
//	Eval(full ∪ delta) = Eval((full ∪ delta) \ delta) ∪ EvalDelta(full, delta)
//
// Fast branches execute their compiled plan once per atom over a delta
// relation, with that atom pinned to the delta and the remaining atoms
// joining against full (the plan caches one schedule per pin);
// branches not reading any delta relation are skipped (their
// derivations are unchanged); slow positive branches are re-evaluated
// in full, which is a superset of their new derivations and a subset
// of Eval(full ∪ delta) — exact either way. It implements
// query.DeltaEvaluable.
func (q *Query) EvalDelta(full, delta *fact.Instance) (*fact.Relation, error) {
	out := full.Dict().NewRelation(len(q.Head))
	if !q.deltaOK || delta == nil {
		return out, nil
	}
	var union *fact.Instance
	var adomOf func() []fact.Value
	for _, b := range q.branches {
		// Pure join branches pin per atom; lowered (in)equality filters
		// never consult the instance (they compare bound values), so
		// they keep the pinned union exact — including negated
		// equalities, which stay monotone for the same reason.
		if b.p != nil && len(b.guard) == 0 && len(b.guardClosed) == 0 {
			for i, a := range b.atoms {
				if r := delta.Relation(a.Rel); r == nil || r.Empty() {
					continue
				}
				if err := b.p.Run(full, delta, i, nil, nil, out); err != nil {
					return nil, err
				}
			}
			continue
		}
		// Guarded or slow (but positive, by deltaOK) branch, or a fast
		// branch whose head is not bound by its atoms: re-evaluate in
		// full — guards and quantifiers may react to the delta through
		// the active domain, and monotonicity makes the full result a
		// superset of the new derivations, keeping the union equation
		// exact.
		if union == nil {
			if delta.Empty() {
				return out, nil // no branch can derive anything new
			}
			union = withDelta(full, delta)
			adomOf = adomMemo(union)
		}
		if err := q.evalBranch(b, union, adomOf, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// withDelta returns full ∪ delta for a delta whose relations full
// either holds (already containing delta) or lacks entirely: full
// itself, or a shallow clone with the missing relations installed.
func withDelta(full, delta *fact.Instance) *fact.Instance {
	union := full
	for _, n := range delta.RelNames() {
		r := delta.Relation(n)
		if r.Empty() || full.Relation(n) != nil {
			continue
		}
		if union == full {
			union = full.ShallowClone()
		}
		union.SetRelationOwned(n, r)
	}
	return union
}

// ExplainPlan implements query.PlanExplainer: it renders the compiled
// plan of every branch — chosen atom order, probe columns, guard
// placement — and, for delta-joinable branches of CanDelta queries,
// every pinned delta variant.
func (q *Query) ExplainPlan() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fo query %s(%s) := %s\n", q.Name, joinVars(q.Head), q.Body)
	if q.branches == nil {
		b.WriteString("  active-domain enumeration (variable shadowing defeats the branch decomposition)\n")
		return b.String()
	}
	for i, br := range q.branches {
		switch {
		case br.p == nil:
			fmt.Fprintf(&b, "branch %d: active-domain enumeration of %s\n", i+1, br.formula())
		default:
			kind := "join plan"
			var quals []string
			if len(br.eqs) > 0 {
				quals = append(quals, fmt.Sprintf("%d eq filters", len(br.eqs)))
			}
			if len(br.guard) > 0 || len(br.guardClosed) > 0 {
				quals = append(quals, fmt.Sprintf("%d guards, %d closed", len(br.guard), len(br.guardClosed)))
			}
			if len(quals) > 0 {
				kind = fmt.Sprintf("join plan (%s)", strings.Join(quals, ", "))
			}
			fmt.Fprintf(&b, "branch %d: %s\n", i+1, kind)
			if q.deltaOK && len(br.guard) == 0 && len(br.guardClosed) == 0 {
				b.WriteString(br.p.ExplainAll())
			} else {
				b.WriteString(br.p.Explain(-1))
			}
		}
	}
	return b.String()
}

// enumerate adds to out every head assignment over adom satisfying f.
func (q *Query) enumerate(I *fact.Instance, adom []fact.Value, f Formula, out *fact.Relation) error {
	env := make(map[Var]fact.Value, len(q.Head)+4)
	distinct := make([]Var, 0, len(q.Head))
	seen := make(map[Var]bool, len(q.Head))
	for _, v := range q.Head {
		if !seen[v] {
			seen[v] = true
			distinct = append(distinct, v)
		}
	}
	var assign func(i int) error
	assign = func(i int) error {
		if i == len(distinct) {
			ok, err := eval(f, I, adom, env)
			if err != nil {
				return err
			}
			if ok {
				t := make(fact.Tuple, len(q.Head))
				for j, v := range q.Head {
					t[j] = env[v]
				}
				out.Add(t)
			}
			return nil
		}
		for _, a := range adom {
			env[distinct[i]] = a
			if err := assign(i + 1); err != nil {
				return err
			}
		}
		delete(env, distinct[i])
		return nil
	}
	return assign(0)
}
