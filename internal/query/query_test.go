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
	if s := e.Summary(); !s.Evidence.Monotone || s.Reads != nil || s.MayProduce(func(string) bool { return true }) {
		t.Error("Empty summary wrong")
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
	if got := q.Summary().Reads; !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Reads = %v", got)
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
	b := NewFunc("union", 1, []string{"S", "T"}, true, nil).Summary()
	if !b.Mentions("S") || b.Mentions("R") || !b.Mentions("R", "T") {
		t.Error("Mentions wrong")
	}
}

// TestMayProduceFixpoint: a derived relation holds a fact only once
// one of its clauses fires, whatever populated says about it.
func TestMayProduceFixpoint(t *testing.T) {
	s := &Summary{Clauses: []Clause{
		{Body: []string{"mid"}},
		{Head: "mid", Body: []string{"mid"}},
		{Head: "mid", Body: []string{"src"}},
	}}
	if s.MayProduce(func(rel string) bool { return rel == "mid" }) {
		t.Error("mid is derived: populated must not vouch for it")
	}
	if !s.MayProduce(func(rel string) bool { return rel == "src" }) {
		t.Error("src populated: mid, then the result, may hold facts")
	}
}

// depQuery is a query with a fixed summary, for the composition rules.
type depQuery struct {
	Func
	s *Summary
}

func (q depQuery) Summary() *Summary { return q.s }

// withDeps returns f with its summary's deps replaced.
func withDeps(f Func, deps []Dep) depQuery {
	s := *f.Summary()
	s.Deps = deps
	return depQuery{f, &s}
}

func TestComposeEvalAndAnalysis(t *testing.T) {
	I := fact.FromFacts(fact.NewFact("R", "a"), fact.NewFact("S", "b"))
	// outer reads definition D negatively and E positively; D reads R
	// negatively and S positively, E reads R through a guard.
	of := relQuery("D", 1)
	of.Reads, of.Monotone = []string{"D", "E"}, false
	outer := withDeps(of, []Dep{
		{Rel: "D", Polarity: PolNeg, Branch: 0, Where: "o1"},
		{Rel: "E", Polarity: PolPos, Branch: 1, Where: "o2"},
	})
	d := withDeps(relQuery("S", 1), []Dep{
		{Rel: "R", Polarity: PolNeg, Branch: -1, Where: "d1"},
		{Rel: "S", Polarity: PolPos, Branch: -1, Where: "d2"},
	})
	e := relQuery("R", 1)
	e.Monotone, e.AdomSensitive = false, true
	c, err := Compose(outer, map[string]Query{"D": d, "E": e})
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.Eval(I)
	if err != nil || out.Len() != 1 || !out.Contains(fact.Tuple{"b"}) {
		t.Errorf("Eval = %v, %v; want D = S = {(b)}", out, err)
	}
	if got := c.Summary().Reads; !reflect.DeepEqual(got, []string{"R", "S"}) {
		t.Errorf("Reads = %v", got)
	}
	var got []string
	for _, dep := range c.Summary().Deps {
		got = append(got, fmt.Sprintf("%d%s", dep.Branch, dep))
	}
	if want := []string{"0+R", "0-S", "1?R"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Deps = %v, want %v", got, want)
	}
	ev := c.Summary().Evidence
	if ev.Monotone || len(ev.Blockers) != 2 {
		t.Errorf("MonotoneEvidence = %+v, want two blockers (outer, E)", ev)
	}
	if _, err := Compose(outer, map[string]Query{"D": d}); err == nil {
		t.Error("outer reading an undefined relation accepted")
	}
	mono, err := Compose(relQuery("D", 1), map[string]Query{"D": relQuery("S", 1)})
	if err != nil || !mono.Summary().Evidence.Monotone {
		t.Errorf("monotone over monotone not proved: %v", err)
	}
	if c.Summary().RelBounded || !mono.Summary().RelBounded {
		t.Error("a composition is rel-bounded exactly when every definition is")
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
