package datalog

import (
	"fmt"
	"maps"
	"testing"

	"declnet/internal/fact"
)

// checkAgainstOracle requires semi-naive Eval and naive evalNaive of p
// on edb to both equal evalOracle's fixpoint.
func checkAgainstOracle(t *testing.T, p *Program, edb *fact.Instance) {
	t.Helper()
	want, err := evalOracle(p, edb)
	if err != nil {
		t.Fatal(err)
	}
	for name, eval := range map[string]func(*fact.Instance) (*fact.Instance, error){
		"Eval": p.Eval, "EvalNaive": p.evalNaive,
	} {
		got, err := eval(edb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s of\n%s\non %v:\ngot    %v\noracle %v", name, p, edb, got, want)
		}
	}
}

// evalOracle computes the stratified semantics of p on edb straight
// from the rule syntax, as the oracle of the differential tests:
// stratum by stratum, every rule of the stratum is applied to the
// whole instance until nothing new is derived. A rule application
// enumerates every substitution of its positive literals over the
// instance, binds the remaining variables through equalities, and
// keeps those that satisfy every literal. It shares no code with the
// rule compiler or the plan layer; only the stratification is the
// program's own.
func evalOracle(p *Program, edb *fact.Instance) (*fact.Instance, error) {
	strata, err := p.Stratify()
	if err != nil {
		return nil, err
	}
	I := edb.Clone()
	for _, stratum := range strata {
		in := map[string]bool{}
		for _, pred := range stratum {
			in[pred] = true
		}
		for changed := true; changed; {
			changed = false
			for _, r := range p.Rules {
				if !in[r.Head.Pred] {
					continue
				}
				heads, err := oracleConsequences(r, I)
				if err != nil {
					return nil, err
				}
				for _, t := range heads {
					if I.AddFact(fact.Fact{Rel: r.Head.Pred, Args: t}) {
						changed = true
					}
				}
			}
		}
	}
	return I, nil
}

// oracleConsequences returns the head tuples rule r derives on I.
func oracleConsequences(r Rule, I *fact.Instance) ([]fact.Tuple, error) {
	var pos []Atom
	for _, l := range r.Body {
		if l.Kind == LitPos {
			pos = append(pos, l.Atom)
		}
	}
	var heads []fact.Tuple
	var err error
	env := map[string]fact.Value{}
	var match func(i int)
	match = func(i int) {
		if i == len(pos) {
			var t fact.Tuple
			if t, err = oracleHead(r, I, env); t != nil {
				heads = append(heads, t)
			}
			return
		}
		a := pos[i]
		rel := I.Relation(a.Pred)
		if rel == nil || rel.Arity() != len(a.Terms) {
			return
		}
		for _, t := range rel.Tuples() {
			var fresh []string
			ok := true
			for j, tm := range a.Terms {
				v, bound := oracleValue(tm, env)
				if !bound {
					env[tm.Var] = t[j]
					fresh = append(fresh, tm.Var)
				} else if v != t[j] {
					ok = false
					break
				}
			}
			if ok {
				match(i + 1)
			}
			for _, v := range fresh {
				delete(env, v)
			}
			if err != nil {
				return
			}
		}
	}
	match(0)
	return heads, err
}

// oracleHead finishes one substitution of the positive literals:
// equalities bind what is still unbound, every other literal must
// hold, and the head is instantiated. It returns nil when a literal
// fails, and an error when a variable stays unbound (an unsafe rule).
func oracleHead(r Rule, I *fact.Instance, env map[string]fact.Value) (fact.Tuple, error) {
	env = maps.Clone(env)
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			if l.Kind != LitEq {
				continue
			}
			lv, lb := oracleValue(l.L, env)
			rv, rb := oracleValue(l.R, env)
			switch {
			case lb && !rb:
				env[l.R.Var], changed = lv, true
			case rb && !lb:
				env[l.L.Var], changed = rv, true
			}
		}
	}
	ground := func(ts ...Term) (fact.Tuple, error) {
		out := make(fact.Tuple, len(ts))
		for i, tm := range ts {
			v, ok := oracleValue(tm, env)
			if !ok {
				return nil, fmt.Errorf("datalog: rule %s: variable %s unbound", r, tm.Var)
			}
			out[i] = v
		}
		return out, nil
	}
	for _, l := range r.Body {
		switch l.Kind {
		case LitNeg:
			t, err := ground(l.Atom.Terms...)
			if err != nil {
				return nil, err
			}
			if rel := I.Relation(l.Atom.Pred); rel != nil && rel.Contains(t) {
				return nil, nil
			}
		case LitEq, LitNeq:
			t, err := ground(l.L, l.R)
			if err != nil {
				return nil, err
			}
			if (t[0] == t[1]) != (l.Kind == LitEq) {
				return nil, nil
			}
		}
	}
	return ground(r.Head.Terms...)
}

// oracleValue resolves a term under env, reporting whether it is bound.
func oracleValue(t Term, env map[string]fact.Value) (fact.Value, bool) {
	if !t.IsVar() {
		return t.Const, true
	}
	v, ok := env[t.Var]
	return v, ok
}
