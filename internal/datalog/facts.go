package datalog

import (
	"fmt"

	"declnet/internal/fact"
)

// ParseFacts parses a set of ground facts in Datalog syntax, one per
// statement: e.g. "e(a, b). e(b, c). s('hello world')." Variables are
// not allowed. It is the input format of the command-line tools.
func ParseFacts(src string) (*fact.Instance, error) {
	fresh := 0
	I := fact.NewInstance()
	for lineNo, stmt := range splitStatements(src) {
		r, err := parseRule(stmt, &fresh)
		if err != nil {
			return nil, fmt.Errorf("datalog: facts statement %d: %w", lineNo+1, err)
		}
		if len(r.Body) != 0 {
			return nil, fmt.Errorf("datalog: facts statement %d: rules not allowed in a facts file", lineNo+1)
		}
		t := make(fact.Tuple, len(r.Head.Terms))
		for i, tm := range r.Head.Terms {
			if tm.IsVar() {
				return nil, fmt.Errorf("datalog: facts statement %d: variable %s in fact", lineNo+1, tm.Var)
			}
			t[i] = tm.Const
		}
		if rel := I.Relation(r.Head.Pred); rel != nil && rel.Arity() != len(t) {
			return nil, fmt.Errorf("datalog: facts statement %d: %s has arity %d here but %d in an earlier fact",
				lineNo+1, r.Head, len(t), rel.Arity())
		}
		I.AddFact(fact.Fact{Rel: r.Head.Pred, Args: t})
	}
	return I, nil
}
