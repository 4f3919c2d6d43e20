package query

import (
	"fmt"
	"sort"
	"strings"

	"declnet/internal/fact"
)

// Composed evaluates an outer query over the relations its definitions
// compute: each definition computes one relation from the instance, and
// the outer query reads exactly those, under their names. Constructions
// use it to run a caller's query over a view of the state (the
// collected input, a completion gate); reads, polarities, monotonicity
// and plans all derive from the parts.
type Composed struct {
	outer Query
	defs  map[string]Query
	names []string // sorted keys of defs
	rels  []string // what the definitions read
}

// Compose returns outer composed with the named definitions; outer may
// read only relations that defs defines.
func Compose(outer Query, defs map[string]Query) (*Composed, error) {
	c := &Composed{outer: outer, defs: defs}
	var qs []Query
	for n, q := range defs {
		c.names, qs = append(c.names, n), append(qs, q)
	}
	sort.Strings(c.names)
	c.rels = MergeRels(qs...)
	for _, r := range outer.Rels() {
		if defs[r] == nil {
			return nil, fmt.Errorf("query: composed query reads %s, which none of %v defines", r, c.names)
		}
	}
	return c, nil
}

// Arity implements Query.
func (c *Composed) Arity() int { return c.outer.Arity() }

// Rels implements Query: the relations the definitions read.
func (c *Composed) Rels() []string { return c.rels }

// Eval implements Query.
func (c *Composed) Eval(I *fact.Instance) (*fact.Relation, error) {
	view := I.Dict().NewInstance()
	for _, n := range c.names {
		r, err := c.defs[n].Eval(I)
		if err != nil {
			return nil, err
		}
		if r.Dict() != view.Dict() {
			r = r.Rekey(view.Dict()) // a Func may build its result in another dictionary
		}
		view.SetRelationOwned(n, r)
	}
	return c.outer.Eval(view)
}

// SyntacticallyMonotone implements Query.
func (c *Composed) SyntacticallyMonotone() bool { return c.MonotoneEvidence().Monotone }

// QueryDeps implements DepAnalyzable: each read of a definition by the
// outer query expands into the definition's reads, polarities composed.
func (c *Composed) QueryDeps() []Dep {
	type key struct {
		rel    string
		branch int
	}
	var out []Dep
	index := map[key]int{}
	for _, od := range DepsOf(c.outer) {
		for _, d := range DepsOf(c.defs[od.Rel]) {
			k, pol := key{d.Rel, od.Branch}, through(od.Polarity, d.Polarity)
			if i, ok := index[k]; ok {
				out[i].Polarity = out[i].Polarity.Join(pol)
				continue
			}
			index[k] = len(out)
			out = append(out, Dep{Rel: d.Rel, Polarity: pol, Branch: od.Branch, Where: od.Where + ", then " + d.Where})
		}
	}
	return out
}

// through is the polarity of a read q made by a definition that is
// itself read with polarity p: a negated definition flips what it
// reads, and a guard on either side stays a guard.
func through(p, q Polarity) Polarity {
	switch {
	case p == PolGuard || q == PolGuard:
		return PolGuard
	case p == q:
		return PolPos
	}
	return PolNeg
}

// MonotoneEvidence implements MonotoneExplainable: the composition is
// proved monotone when the outer query and every definition are.
func (c *Composed) MonotoneEvidence() MonotoneEvidence {
	ev := ExplainMonotone(c.outer)
	for _, n := range c.names {
		d := ExplainMonotone(c.defs[n])
		for _, r := range d.Reasons {
			ev.Reasons = append(ev.Reasons, n+": "+r)
		}
		for _, b := range d.Blockers {
			ev.Blockers = append(ev.Blockers, n+": "+b)
		}
		ev.Monotone = ev.Monotone && d.Monotone
	}
	if !ev.Monotone {
		ev.Reasons = nil
	}
	return ev
}

// ExplainPlan implements PlanExplainer: the outer query's plans, then
// each definition's under its name, indented.
func (c *Composed) ExplainPlan() string {
	var b strings.Builder
	fmt.Fprintf(&b, "composed query: arity %d over %v\n", c.Arity(), c.names)
	for i := -1; i < len(c.names); i++ {
		q := c.outer
		if i >= 0 {
			fmt.Fprintf(&b, "def %s:\n", c.names[i])
			q = c.defs[c.names[i]]
		}
		for _, line := range strings.SplitAfter(ExplainPlan(q), "\n") {
			if line != "" {
				b.WriteString("  " + line)
			}
		}
	}
	return b.String()
}
