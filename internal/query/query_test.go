package query

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"declnet/internal/fact"
)

func TestEmptyQuery(t *testing.T) {
	e := Empty{K: 2}
	out, err := e.Eval(fact.FromFacts(fact.NewFact("R", "a", "b")))
	if err != nil || out.Len() != 0 || out.Arity() != 2 {
		t.Errorf("Empty.Eval = %v, %v", out, err)
	}
	if !e.SyntacticallyMonotone() || e.Rels() != nil {
		t.Error("Empty metadata wrong")
	}
}

func TestFuncArityEnforced(t *testing.T) {
	q := NewFunc("bad", 2, nil, false, func(*fact.Instance) (*fact.Relation, error) {
		return fact.NewRelation(1), nil // wrong arity
	})
	if _, err := q.Eval(fact.NewInstance()); err == nil {
		t.Error("arity mismatch not caught")
	}
}

func TestFuncErrorWrapped(t *testing.T) {
	sentinel := errors.New("boom")
	q := NewFunc("failing", 0, nil, false, func(*fact.Instance) (*fact.Relation, error) {
		return nil, sentinel
	})
	if _, err := q.Eval(fact.NewInstance()); !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}

func TestFuncReadsDeduplicated(t *testing.T) {
	q := NewFunc("q", 0, []string{"b", "a", "b", "a"}, true, nil)
	if got := q.Rels(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Rels = %v", got)
	}
}

// relQuery returns the query copying relation rel, as a Func.
func relQuery(rel string, arity int) Func {
	return NewFunc("copy:"+rel, arity, []string{rel}, true,
		func(I *fact.Instance) (*fact.Relation, error) {
			return I.RelationOr(rel, arity).Clone(), nil
		})
}

func TestMergeRelsAndMentions(t *testing.T) {
	a := relQuery("R", 1)
	b := NewFunc("union", 1, []string{"S", "T"}, true, nil)
	got := MergeRels(a, b, nil)
	if !reflect.DeepEqual(got, []string{"R", "S", "T"}) {
		t.Errorf("MergeRels = %v", got)
	}
	if !Mentions(b, "S") || Mentions(b, "R") || Mentions(nil, "R") {
		t.Error("Mentions wrong")
	}
}

// depQuery is a query with fixed polarized dependencies and
// monotonicity, for the composition rules.
type depQuery struct {
	Func
	deps []Dep
}

func (q depQuery) QueryDeps() []Dep { return q.deps }

func TestComposeEvalAndAnalysis(t *testing.T) {
	I := fact.FromFacts(fact.NewFact("R", "a"), fact.NewFact("S", "b"))
	// outer reads definition D negatively and E positively; D reads R
	// negatively and S positively, E reads R through a guard.
	outer := depQuery{relQuery("D", 1), []Dep{
		{Rel: "D", Polarity: PolNeg, Branch: 0, Where: "o1"},
		{Rel: "E", Polarity: PolPos, Branch: 1, Where: "o2"},
	}}
	outer.Reads, outer.Monotone = []string{"D", "E"}, false
	d := depQuery{relQuery("S", 1), []Dep{
		{Rel: "R", Polarity: PolNeg, Branch: -1, Where: "d1"},
		{Rel: "S", Polarity: PolPos, Branch: -1, Where: "d2"},
	}}
	e := relQuery("R", 1)
	e.Monotone = false
	c, err := Compose(outer, map[string]Query{"D": d, "E": e})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Eval(I)
	if err != nil || out.Len() != 1 || !out.Contains(fact.Tuple{"b"}) {
		t.Errorf("Eval = %v, %v; want D = S = {(b)}", out, err)
	}
	if got := c.Rels(); !reflect.DeepEqual(got, []string{"R", "S"}) {
		t.Errorf("Rels = %v", got)
	}
	var got []string
	for _, dep := range c.QueryDeps() {
		got = append(got, fmt.Sprintf("%d%s", dep.Branch, dep))
	}
	if want := []string{"0+R", "0-S", "1?R"}; !reflect.DeepEqual(got, want) {
		t.Errorf("QueryDeps = %v, want %v", got, want)
	}
	ev := c.MonotoneEvidence()
	if ev.Monotone || c.SyntacticallyMonotone() || len(ev.Blockers) != 2 {
		t.Errorf("MonotoneEvidence = %+v, want two blockers (outer, E)", ev)
	}
	if _, err := Compose(outer, map[string]Query{"D": d}); err == nil {
		t.Error("outer reading an undefined relation accepted")
	}
	mono, err := Compose(relQuery("D", 1), map[string]Query{"D": relQuery("S", 1)})
	if err != nil || !mono.SyntacticallyMonotone() {
		t.Errorf("monotone over monotone not proved: %v", err)
	}
	// A definition may build its result in the default dictionary
	// while the instance uses its own.
	foreign := NewFunc("foreign", 1, nil, true, func(*fact.Instance) (*fact.Relation, error) {
		r := fact.NewRelation(1)
		r.Add(fact.Tuple{"z"})
		return r, nil
	})
	fc, err := Compose(relQuery("D", 1), map[string]Query{"D": foreign})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := fc.Eval(fact.NewDict().NewInstance()); err != nil || !out.Contains(fact.Tuple{"z"}) {
		t.Errorf("Eval over a foreign-dictionary definition = %v, %v", out, err)
	}
	if got := ExplainPlan(Empty{K: 2}); got != "empty query: arity 2\n" {
		t.Errorf("ExplainPlan(Empty) = %q", got)
	}
}
