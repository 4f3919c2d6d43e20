package fo

import (
	"fmt"

	"declnet/internal/fact"
)

// This file is the FO oracle of the differential tests: a tree-walking
// evaluator of the active-domain semantics that enumerates adom^k for
// the head and adom for every quantifier. It shares nothing with the
// plan lowering in fastpath.go, so an agreement between the two checks
// the lowering against the definition.

// EvalGeneric evaluates the query by active-domain enumeration.
func (q *Query) EvalGeneric(I *fact.Instance) (*fact.Relation, error) {
	out := I.Dict().NewRelation(len(q.Head))
	if err := enumerate(q.Head, I, I.ActiveDomain(), q.Body, out); err != nil {
		return nil, fmt.Errorf("fo: query %s: %w", q.Name, err)
	}
	return out, nil
}

// enumerate adds to out every head assignment over adom satisfying f.
func enumerate(head []Var, I *fact.Instance, adom []fact.Value, f Formula, out *fact.Relation) error {
	env := make(map[Var]fact.Value, len(head)+4)
	var distinct []Var
	seen := make(map[Var]bool, len(head))
	for _, v := range head {
		if !seen[v] {
			seen[v] = true
			distinct = append(distinct, v)
		}
	}
	var assign func(i int) error
	assign = func(i int) error {
		if i == len(distinct) {
			ok, err := eval(f, I, adom, env)
			if err != nil || !ok {
				return err
			}
			t := make(fact.Tuple, len(head))
			for j, v := range head {
				t[j] = env[v]
			}
			out.Add(t)
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

func evalTerm(t Term, env map[Var]fact.Value) (fact.Value, error) {
	switch x := t.(type) {
	case Var:
		v, ok := env[x]
		if !ok {
			return "", fmt.Errorf("unbound variable %s", x)
		}
		return v, nil
	case Const:
		return fact.Value(x), nil
	default:
		return "", fmt.Errorf("unknown term %T", t)
	}
}

func eval(f Formula, I *fact.Instance, adom []fact.Value, env map[Var]fact.Value) (bool, error) {
	switch g := f.(type) {
	case Truth:
		return g.Val, nil
	case Atom:
		t := make(fact.Tuple, len(g.Terms))
		for i, tm := range g.Terms {
			v, err := evalTerm(tm, env)
			if err != nil {
				return false, err
			}
			t[i] = v
		}
		r := I.Relation(g.Rel)
		return r != nil && r.Contains(t), nil
	case Eq:
		l, err := evalTerm(g.L, env)
		if err != nil {
			return false, err
		}
		r, err := evalTerm(g.R, env)
		if err != nil {
			return false, err
		}
		return l == r, nil
	case Not:
		ok, err := eval(g.F, I, adom, env)
		return !ok, err
	case And:
		for _, sub := range g.Fs {
			ok, err := eval(sub, I, adom, env)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case Or:
		for _, sub := range g.Fs {
			ok, err := eval(sub, I, adom, env)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	case Exists:
		return evalQuant(g.Vars, g.F, I, adom, env, false)
	case Forall:
		return evalQuant(g.Vars, g.F, I, adom, env, true)
	default:
		return false, fmt.Errorf("unknown formula %T", f)
	}
}

// evalQuant enumerates assignments of vars over adom. For forall it
// looks for a falsifying assignment, for exists a satisfying one.
func evalQuant(vars []Var, body Formula, I *fact.Instance, adom []fact.Value, env map[Var]fact.Value, universal bool) (bool, error) {
	// Save shadowed bindings to restore after enumeration.
	saved := make(map[Var]fact.Value, len(vars))
	present := make(map[Var]bool, len(vars))
	for _, v := range vars {
		if old, ok := env[v]; ok {
			saved[v] = old
			present[v] = true
		}
	}
	defer func() {
		for _, v := range vars {
			if present[v] {
				env[v] = saved[v]
			} else {
				delete(env, v)
			}
		}
	}()

	var rec func(i int) (bool, error)
	rec = func(i int) (bool, error) {
		if i == len(vars) {
			return eval(body, I, adom, env)
		}
		for _, a := range adom {
			env[vars[i]] = a
			ok, err := rec(i + 1)
			if err != nil {
				return false, err
			}
			if universal && !ok {
				return false, nil
			}
			if !universal && ok {
				return true, nil
			}
		}
		return universal, nil
	}
	return rec(0)
}
