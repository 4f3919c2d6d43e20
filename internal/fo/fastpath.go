package fo

import (
	"fmt"
	"strings"

	"declnet/internal/fact"
	"declnet/internal/plan"
)

// This file lowers every FO formula onto the compiled physical plan
// layer (internal/plan), Codd-style: under active-domain semantics FO
// equals relational algebra, so each query runs as joins and
// anti-joins. NewQuery renames bound variables apart and splits the
// body into disjunctive branches. A branch is a conjunction of
// literals — atoms, (in)equalities, negated atoms — plus conjuncts of
// any other shape (¬ψ, ∀x̄ψ as ¬∃x̄¬ψ, a nested ∨, a closed sentence),
// each compiled recursively into an inner query over its free
// variables that the branch reads as one more join atom, or as an
// anti-join when negated. A variable no positive atom binds joins a
// unary relation holding the active domain. Each branch compiles ONCE,
// at NewQuery time, into a join plan whose schedules (and the
// per-pinned-atom delta schedules EvalDelta needs) are cached.
//
// Inner results and the active domain live in a per-evaluation overlay
// of the instance (a shallow clone), under relation names the parser
// cannot produce, and are never cached on the Query: one Query may be
// evaluated concurrently. A branch with neither — a positive
// conjunctive query whose atoms bind the head — runs its plan directly
// on the instance.

// adomRel names the overlay relation holding the active domain.
const adomRel = "#adom"

// conj is one branch of the normalized body: a conjunction of
// literals.
type conj struct {
	atoms  []Atom   // positive atoms over instance relations
	eqs    []eqLit  // (in)equalities
	negs   []Atom   // negated atoms: anti-joins
	subs   []subLit // conjuncts of any other shape: inner queries
	exVars []Var    // variables of the ∃s absorbed into the branch
}

// eqLit is an (in)equality literal: the equality, negated when neq is
// set (x ≠ z parses as ¬(x = z)).
type eqLit struct {
	eq  Eq
	neq bool
}

// subLit is a conjunct that is not a literal: the branch reads the
// inner query over f's free variables as a join atom, or as an
// anti-join when neg is set. src is the conjunct as written, whose
// polarity QueryDeps reports.
type subLit struct {
	src, f Formula
	neg    bool
}

func (c *conj) merge(o conj) {
	c.atoms = append(c.atoms, o.atoms...)
	c.eqs = append(c.eqs, o.eqs...)
	c.negs = append(c.negs, o.negs...)
	c.subs = append(c.subs, o.subs...)
	c.exVars = append(c.exVars, o.exVars...)
}

// normalize splits a formula whose bound variables are renamed apart
// into its disjunctive branches: top-level disjunctions and ∃ over a
// disjunction become separate branches, conjunctions absorb every
// conjunct that is itself one branch, and a conjunct with several
// branches becomes an inner query. No branches means false.
func normalize(f Formula) []conj {
	switch g := f.(type) {
	case Or:
		var out []conj
		for _, sub := range g.Fs {
			out = append(out, normalize(sub)...)
		}
		return out
	case Atom:
		return []conj{{atoms: []Atom{g}}}
	case Eq:
		return []conj{{eqs: []eqLit{{eq: g}}}}
	case Truth:
		if g.Val {
			return []conj{{}}
		}
		return nil
	case Not:
		switch h := g.F.(type) {
		case Atom:
			return []conj{{negs: []Atom{h}}}
		case Eq:
			return []conj{{eqs: []eqLit{{eq: h, neq: true}}}}
		case Truth:
			return normalize(Truth{Val: !h.Val})
		}
		return []conj{{subs: []subLit{{src: g, f: g.F, neg: true}}}}
	case Forall:
		return []conj{{subs: []subLit{{src: g, f: Exists{Vars: g.Vars, F: Not{F: g.F}}, neg: true}}}}
	case Exists:
		bs := normalize(g.F)
		for i := range bs {
			bs[i].exVars = append(bs[i].exVars, g.Vars...)
		}
		return bs
	case And:
		var acc conj
		for _, sub := range g.Fs {
			switch bs := normalize(sub); len(bs) {
			case 0:
				return nil
			case 1:
				acc.merge(bs[0])
			default:
				acc.subs = append(acc.subs, subLit{src: sub, f: sub})
			}
		}
		return []conj{acc}
	}
	return nil
}

// renameApart renames bound variables so that no quantifier binds a
// head variable, a variable an enclosing quantifier binds, or one
// another quantifier of the same branch binds: each name then denotes
// one variable within a branch, and absorbing an ∃ into the enclosing
// conjunction is sound. The disjuncts of an ∨ reached from the root
// through ∨ and ∃ alone become separate branches, so each may reuse
// the names the others bind; any other ∨ may collapse into its
// enclosing conjunction (a false disjunct drops out) and is renamed
// as a whole. A fresh name appends one or more primes to the old one
// (x'), which the parser cannot produce.
// NewQuery calls it only when rebinds finds a repeated name.
func renameApart(f Formula, head []Var) Formula {
	used := map[Var]bool{}
	collectVars(f, used)
	taken := map[Var]bool{}
	for _, v := range head {
		used[v], taken[v] = true, true
	}
	var taking []Var // names taken so far, in order
	var rename func(f Formula, scope map[Var]Var, top bool) Formula
	terms := func(ts []Term, scope map[Var]Var) []Term {
		out := make([]Term, len(ts))
		for i, t := range ts {
			out[i] = t
			if v, ok := t.(Var); ok {
				if n, ok := scope[v]; ok {
					out[i] = n
				}
			}
		}
		return out
	}
	quant := func(vs []Var, scope map[Var]Var) ([]Var, map[Var]Var) {
		inner := make(map[Var]Var, len(scope)+len(vs))
		for k, v := range scope {
			inner[k] = v
		}
		out := make([]Var, len(vs))
		for i, v := range vs {
			n := v
			if taken[n] {
				for used[n] {
					n += "'"
				}
				used[n] = true
			}
			taken[n] = true
			taking = append(taking, n)
			inner[v], out[i] = n, n
		}
		return out, inner
	}
	rename = func(f Formula, scope map[Var]Var, top bool) Formula {
		switch g := f.(type) {
		case Atom:
			return Atom{Rel: g.Rel, Terms: terms(g.Terms, scope)}
		case Eq:
			ts := terms([]Term{g.L, g.R}, scope)
			return Eq{L: ts[0], R: ts[1]}
		case Not:
			return Not{F: rename(g.F, scope, false)}
		case And:
			fs := make([]Formula, len(g.Fs))
			for i, sub := range g.Fs {
				fs[i] = rename(sub, scope, false)
			}
			return And{Fs: fs}
		case Or:
			fs := make([]Formula, len(g.Fs))
			for i, sub := range g.Fs {
				mark := len(taking)
				fs[i] = rename(sub, scope, top)
				if top {
					for _, n := range taking[mark:] {
						delete(taken, n)
					}
					taking = taking[:mark]
				}
			}
			return Or{Fs: fs}
		case Exists:
			vs, inner := quant(g.Vars, scope)
			return Exists{Vars: vs, F: rename(g.F, inner, top)}
		case Forall:
			vs, inner := quant(g.Vars, scope)
			return Forall{Vars: vs, F: rename(g.F, inner, false)}
		}
		return f
	}
	return rename(f, nil, true)
}

// rebinds reports whether some quantifier of f binds a variable in
// taken or one another quantifier binds, adding every quantified
// variable to taken. A formula without such repeats needs no renaming.
func rebinds(f Formula, taken map[Var]bool) bool {
	quant := func(vs []Var, body Formula) bool {
		for _, v := range vs {
			if taken[v] {
				return true
			}
			taken[v] = true
		}
		return rebinds(body, taken)
	}
	switch g := f.(type) {
	case Not:
		return rebinds(g.F, taken)
	case And:
		for _, sub := range g.Fs {
			if rebinds(sub, taken) {
				return true
			}
		}
	case Or:
		for _, sub := range g.Fs {
			if rebinds(sub, taken) {
				return true
			}
		}
	case Exists:
		return quant(g.Vars, g.F)
	case Forall:
		return quant(g.Vars, g.F)
	}
	return false
}

// collectVars adds every variable occurring in f, free or bound.
func collectVars(f Formula, out map[Var]bool) {
	terms := func(ts ...Term) {
		for _, t := range ts {
			if v, ok := t.(Var); ok {
				out[v] = true
			}
		}
	}
	switch g := f.(type) {
	case Atom:
		terms(g.Terms...)
	case Eq:
		terms(g.L, g.R)
	case Not:
		collectVars(g.F, out)
	case And:
		for _, sub := range g.Fs {
			collectVars(sub, out)
		}
	case Or:
		for _, sub := range g.Fs {
			collectVars(sub, out)
		}
	case Exists:
		for _, v := range g.Vars {
			out[v] = true
		}
		collectVars(g.F, out)
	case Forall:
		for _, v := range g.Vars {
			out[v] = true
		}
		collectVars(g.F, out)
	}
}

// branch is one disjunct of the body, compiled to a join plan.
type branch struct {
	p *plan.Plan
	// atoms are the branch's atoms over instance relations, plan atoms
	// 0..len(atoms)-1, which EvalDelta pins by index.
	atoms []Atom
	// subs are the inner queries the plan reads from the overlay, and
	// adom marks a join with the active domain.
	subs []sub
	adom bool
	// nEqs and nAnti count (in)equality filters and anti-joins, for
	// ExplainPlan.
	nEqs, nAnti int
}

// sub is an inner query of a branch; its results are installed in the
// overlay under the query's name.
type sub struct {
	q   *Query
	src Formula
}

// overlay reports whether rel is one of the relations the branch reads
// from its per-evaluation overlay rather than the instance.
func (b *branch) overlay(rel string) bool {
	for _, s := range b.subs {
		if s.q.Name == rel {
			return true
		}
	}
	return rel == adomRel
}

// monotone reports whether the branch has no anti-join, at any depth
// of its inner queries: every read is positive.
func (b *branch) monotone() bool {
	for _, s := range b.subs {
		if !s.q.deltaOK {
			return false
		}
	}
	return b.nAnti == 0
}

// pinnable reports whether the plan reads instance relations only, so
// that EvalDelta may pin each atom to the delta in turn.
func (b *branch) pinnable() bool { return len(b.subs) == 0 && !b.adom }

// compileBranch lowers one branch into a join plan: a register per
// variable, one plan atom per instance atom (in branch order, so
// EvalDelta can pin by atom index), one per positive inner query, a
// filter per (in)equality and an anti-join per negated atom or negated
// inner query, then an active-domain atom for every head or filter
// variable no atom (or equality with a bound variable) binds.
func compileBranch(name string, head []Var, c conj) (branch, error) {
	regOf := map[Var]int{}
	var regNames []string
	term := func(t Term) plan.Term {
		v, ok := t.(Var)
		if !ok {
			return plan.Const(fact.Value(t.(Const)))
		}
		r, ok := regOf[v]
		if !ok {
			r = len(regNames)
			regOf[v] = r
			regNames = append(regNames, string(v))
		}
		return plan.Reg(r)
	}
	planTerms := func(ts []Term) []plan.Term {
		out := make([]plan.Term, len(ts))
		for i, t := range ts {
			out[i] = term(t)
		}
		return out
	}
	spec := plan.Spec{Name: name}
	bound := map[Var]bool{}
	needed := append([]Var(nil), head...)
	need := func(ts ...Term) {
		for _, t := range ts {
			if v, ok := t.(Var); ok {
				needed = append(needed, v)
			}
		}
	}
	addAtom := func(rel string, ts []Term) {
		spec.Atoms = append(spec.Atoms, plan.Atom{Rel: rel, Terms: planTerms(ts)})
		for _, t := range ts {
			if v, ok := t.(Var); ok {
				bound[v] = true
			}
		}
	}
	addAnti := func(rel string, ts []Term) {
		spec.Filters = append(spec.Filters, plan.Filter{Kind: plan.FilterNotIn, Rel: rel, Terms: planTerms(ts)})
		need(ts...)
	}
	b := branch{atoms: c.atoms, nEqs: len(c.eqs), nAnti: len(c.negs)}
	for _, a := range c.atoms {
		addAtom(a.Rel, a.Terms)
	}
	for _, e := range c.eqs {
		kind := plan.FilterEq
		if e.neq {
			kind = plan.FilterNeq
		}
		spec.Filters = append(spec.Filters, plan.Filter{Kind: kind, L: term(e.eq.L), R: term(e.eq.R)})
		need(e.eq.L, e.eq.R)
	}
	for _, a := range c.negs {
		addAnti(a.Rel, a.Terms)
	}
	for j, s := range c.subs {
		fv := FreeVars(s.f)
		names := make([]string, len(fv))
		ts := make([]Term, len(fv))
		for i, v := range fv {
			names[i], ts[i] = string(v), v
		}
		q, err := NewQuery(fmt.Sprintf("%s.%d", name, j+1), names, s.f)
		if err != nil {
			return branch{}, err
		}
		b.subs = append(b.subs, sub{q: q, src: s.src})
		if s.neg {
			b.nAnti++
			addAnti(q.Name, ts)
		} else {
			addAtom(q.Name, ts)
		}
	}
	// An equality with a bound variable binds the other side (the plan
	// compiles it to an assignment); any other unbound variable ranges
	// over the active domain.
	closeEqs := func() {
		for changed := true; changed; {
			changed = false
			for _, e := range c.eqs {
				l, lok := e.eq.L.(Var)
				r, rok := e.eq.R.(Var)
				if !e.neq && lok && rok && bound[l] != bound[r] {
					bound[l], bound[r], changed = true, true, true
				}
			}
		}
	}
	closeEqs()
	for _, v := range needed {
		if !bound[v] {
			addAtom(adomRel, []Term{v})
			b.adom = true
			closeEqs()
		}
	}
	// ∃z over a variable nothing mentions still needs a nonempty
	// active domain, which only an atom with a column guarantees.
	wide := false
	for _, a := range spec.Atoms {
		wide = wide || len(a.Terms) > 0
	}
	for _, v := range c.exVars {
		if !wide && !bound[v] {
			addAtom(adomRel, []Term{v})
			b.adom = true
			break
		}
	}
	spec.Head = make([]plan.Term, len(head))
	for i, h := range head {
		spec.Head[i] = term(h)
	}
	spec.NumRegs = len(regNames)
	spec.RegNames = regNames
	p, err := plan.New(spec)
	if err != nil {
		return branch{}, err
	}
	b.p = p
	return b, nil
}

// evalCtx is the state one evaluation shares across a query and its
// inner queries: the instance and its active domain as a unary
// relation, built on first use.
type evalCtx struct {
	I    *fact.Instance
	adom *fact.Relation
}

func (c *evalCtx) adomRelation() *fact.Relation {
	if c.adom == nil {
		r := c.I.Dict().NewRelation(1)
		for _, v := range c.I.ActiveDomain() {
			r.Add(fact.Tuple{v})
		}
		c.adom = r
	}
	return c.adom
}

// evalInto adds every branch's derivations on c.I to out.
func (q *Query) evalInto(c *evalCtx, out *fact.Relation) error {
	for i := range q.branches {
		if err := q.branches[i].run(c, out); err != nil {
			return err
		}
	}
	return nil
}

// run executes the branch's plan on c.I, or on an overlay of c.I that
// also holds the inner queries' results and the active domain.
func (b *branch) run(c *evalCtx, out *fact.Relation) error {
	I := c.I
	if !b.pinnable() {
		I = c.I.ShallowClone()
		for _, s := range b.subs {
			r := c.I.Dict().NewRelation(s.q.Arity())
			if err := s.q.evalInto(c, r); err != nil {
				return err
			}
			I.SetRelationOwned(s.q.Name, r)
		}
		if b.adom {
			I.SetRelationOwned(adomRel, c.adomRelation())
		}
	}
	return b.p.Run(I, nil, -1, nil, out)
}

// CanDelta reports whether EvalDelta is exact for this query: its
// plans, inner queries included, have no anti-join (negated
// (in)equalities compare bound values and do not count), so the query
// is monotone. It implements query.DeltaEvaluable.
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
// A branch that reads instance relations only executes its compiled
// plan once per atom over a delta relation, with that atom pinned to
// the delta and the remaining atoms joining against full (the plan
// caches one schedule per pin); (in)equality filters compare bound
// values and never consult the instance, so the pins stay exact. A
// branch with inner queries or an active-domain join is re-evaluated
// in full over the union, a superset of its new derivations and, the
// query being monotone, a subset of Eval(full ∪ delta). It implements
// query.DeltaEvaluable.
func (q *Query) EvalDelta(full, delta *fact.Instance) (*fact.Relation, error) {
	out := full.Dict().NewRelation(len(q.Head))
	if !q.deltaOK || delta == nil {
		return out, nil
	}
	var union *evalCtx
	for i := range q.branches {
		b := &q.branches[i]
		if b.pinnable() {
			for j, a := range b.atoms {
				if r := delta.Relation(a.Rel); r == nil || r.Empty() {
					continue
				}
				if err := b.p.Run(full, delta, j, nil, out); err != nil {
					return nil, err
				}
			}
			continue
		}
		if union == nil {
			if delta.Empty() {
				return out, nil // no branch can derive anything new
			}
			union = &evalCtx{I: withDelta(full, delta)}
		}
		if err := b.run(union, out); err != nil {
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
// plan of every branch — chosen atom order, probe columns, filters and
// anti-joins — with every pinned delta variant for the delta-joinable
// branches of CanDelta queries, followed by each inner query's plans,
// indented.
func (q *Query) ExplainPlan() string {
	var b strings.Builder
	q.explainInto(&b, "")
	return b.String()
}

func (q *Query) explainInto(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%sfo query %s(%s) := %s\n", indent, q.Name, joinVars(q.Head), q.Body)
	for i, br := range q.branches {
		var quals []string
		if br.nEqs > 0 {
			quals = append(quals, fmt.Sprintf("%d eq filters", br.nEqs))
		}
		if br.nAnti > 0 {
			quals = append(quals, fmt.Sprintf("%d anti-joins", br.nAnti))
		}
		if len(br.subs) > 0 {
			quals = append(quals, fmt.Sprintf("%d subqueries", len(br.subs)))
		}
		if br.adom {
			quals = append(quals, "active-domain join")
		}
		kind := "join plan"
		if len(quals) > 0 {
			kind = fmt.Sprintf("join plan (%s)", strings.Join(quals, ", "))
		}
		fmt.Fprintf(b, "%sbranch %d: %s\n", indent, i+1, kind)
		// Inner queries (indented) always evaluate in full, so only the
		// top-level query shows delta pins.
		text := br.p.Explain(-1)
		if indent == "" && q.deltaOK && br.pinnable() {
			text = br.p.ExplainAll()
		}
		for _, line := range strings.SplitAfter(text, "\n") {
			if line != "" {
				b.WriteString(indent + line)
			}
		}
		for _, s := range br.subs {
			s.q.explainInto(b, indent+"  ")
		}
	}
}
