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
// collected input, a completion gate); its summary derives from the
// parts' summaries, and its plans from the parts' plans.
type Composed struct {
	outer   Query
	defs    map[string]Query
	names   []string // sorted keys of defs
	summary *Summary
}

// Compose returns outer composed with the named definitions; outer may
// read only relations that defs defines.
func Compose(outer Query, defs map[string]Query) (*Composed, error) {
	c := &Composed{outer: outer, defs: defs}
	for n := range defs {
		c.names = append(c.names, n)
	}
	sort.Strings(c.names)
	for _, r := range outer.Summary().Reads {
		if defs[r] == nil {
			return nil, fmt.Errorf("query: composed query reads %s, which none of %v defines", r, c.names)
		}
	}
	c.summary = c.summarize()
	return c, nil
}

// Arity implements Query.
func (c *Composed) Arity() int { return c.outer.Arity() }

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

// Summary implements Query.
func (c *Composed) Summary() *Summary { return c.summary }

// summarize composes the parts' summaries:
//   - the reads are what the definitions read;
//   - each read of a definition by the outer query expands into the
//     definition's reads, polarities composed;
//   - the composition is proved monotone when the outer query and
//     every definition are;
//   - it is rel-bounded when every definition is, since the outer
//     query sees only the view the definitions compute;
//   - it claims no emptiness and takes no delta evaluation.
func (c *Composed) summarize() *Summary {
	s := &Summary{Clauses: []Clause{{}}, RelBounded: true}
	var reads []string
	for _, n := range c.names {
		d := c.defs[n].Summary()
		reads = append(reads, d.Reads...)
		s.RelBounded = s.RelBounded && d.RelBounded
	}
	s.Reads = dedupSorted(reads)

	type key struct {
		rel    string
		branch int
	}
	index := map[key]int{}
	outer := c.outer.Summary()
	for _, od := range outer.Deps {
		for _, d := range c.defs[od.Rel].Summary().Deps {
			k, pol := key{d.Rel, od.Branch}, through(od.Polarity, d.Polarity)
			if i, ok := index[k]; ok {
				s.Deps[i].Polarity = s.Deps[i].Polarity.Join(pol)
				continue
			}
			index[k] = len(s.Deps)
			s.Deps = append(s.Deps, Dep{Rel: d.Rel, Polarity: pol, Branch: od.Branch, Where: od.Where + ", then " + d.Where})
		}
	}

	ev := outer.Evidence
	ev.Reasons = append([]string(nil), ev.Reasons...)
	ev.Blockers = append([]string(nil), ev.Blockers...)
	for _, n := range c.names {
		d := c.defs[n].Summary().Evidence
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
	s.Evidence = ev
	return s
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
