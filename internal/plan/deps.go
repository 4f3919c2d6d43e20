package plan

import "declnet/internal/query"

// Deps reports the polarized read dependencies of the compiled plan:
// every relational atom is a positive read, every FilterNotIn is a
// negated read. branch tags the produced deps; the language front-ends use
// it to group one plan per disjunct.
//
// This is the "analysis over the compiled plan IR" half of the static
// analyzer: FO branches lowered onto internal/plan get their
// dependency polarity straight from the physical plan rather than from
// a second AST walk, so the analyzed join is exactly the join that
// executes.
func (p *Plan) Deps(branch int) []query.Dep {
	spec := &p.spec
	var deps []query.Dep
	for _, a := range spec.Atoms {
		deps = append(deps, query.Dep{
			Rel:      a.Rel,
			Polarity: query.PolPos,
			Branch:   branch,
			Where:    "plan " + spec.Name + ": atom over " + a.Rel,
		})
	}
	for _, f := range spec.Filters {
		if f.Kind == FilterNotIn {
			deps = append(deps, query.Dep{
				Rel:      f.Rel,
				Polarity: query.PolNeg,
				Branch:   branch,
				Where:    "plan " + spec.Name + ": anti-probe on " + f.Rel,
			})
		}
	}
	return deps
}
