package while

import (
	"errors"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/fo"
)

func ff(rel string, args ...fact.Value) fact.Fact { return fact.NewFact(rel, args...) }

// tcProgram builds the classic while-program for transitive closure:
//
//	T := E; D := E
//	while ∃x,y D(x,y):
//	    N := T ∪ (T∘T)
//	    D := N \ T
//	    T := N
func tcProgram(t *testing.T) *Program {
	t.Helper()
	tUnionComp := fo.MustQuery("n", []string{"x", "y"},
		fo.OrF(
			fo.AtomF("T", "x", "y"),
			fo.ExistsF([]string{"z"}, fo.AndF(fo.AtomF("T", "x", "z"), fo.AtomF("T", "z", "y"))),
		))
	diff := fo.MustQuery("d", []string{"x", "y"},
		fo.AndF(fo.AtomF("N", "x", "y"), fo.NotF(fo.AtomF("T", "x", "y"))))
	copyE := fo.MustQuery("c", []string{"x", "y"}, fo.AtomF("E", "x", "y"))

	return MustNew("T", 2,
		Assign{Rel: "T", Q: copyE},
		Assign{Rel: "D", Q: copyE},
		While{
			Cond: fo.ExistsF([]string{"x", "y"}, fo.AtomF("D", "x", "y")),
			Body: []Stmt{
				Assign{Rel: "N", Q: tUnionComp},
				Assign{Rel: "D", Q: diff},
				Assign{Rel: "T", Q: tUnionComp},
			},
		},
	)
}

func TestTransitiveClosure(t *testing.T) {
	p := tcProgram(t)
	in := fact.FromFacts(ff("E", "a", "b"), ff("E", "b", "c"), ff("E", "c", "d"))
	out, err := p.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	tc := out.Relation("T")
	if tc.Len() != 6 {
		t.Fatalf("T = %v", tc)
	}
	if !tc.Contains(fact.Tuple{"a", "d"}) {
		t.Error("missing (a,d)")
	}
}

func TestQueryAdapter(t *testing.T) {
	q := Query{P: tcProgram(t)}
	if q.Arity() != 2 {
		t.Errorf("arity = %d", q.Arity())
	}
	out, err := q.Eval(fact.FromFacts(ff("E", "a", "b"), ff("E", "b", "a")))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 {
		t.Errorf("out = %v", out)
	}
	rels := q.Summary().Reads
	found := false
	for _, r := range rels {
		if r == "E" {
			found = true
		}
	}
	if !found {
		t.Errorf("Rels = %v, want E included", rels)
	}
	if q.Summary().Evidence.Monotone {
		t.Error("while query should not claim syntactic monotonicity")
	}
}

func TestNonTerminationDetected(t *testing.T) {
	// while true do T := T  — store never changes: divergence.
	idQ := fo.MustQuery("id", []string{"x"}, fo.AtomF("T", "x"))
	p := MustNew("T", 1,
		While{Cond: fo.Truth{Val: true}, Body: []Stmt{Assign{Rel: "T", Q: idQ}}},
	)
	_, err := p.Run(fact.FromFacts(ff("T", "a")))
	if !errors.Is(err, ErrNonTerminating) {
		t.Fatalf("err = %v, want ErrNonTerminating", err)
	}
}

func TestOscillationDetected(t *testing.T) {
	// Flip-flop: while true do T := adom \ T. Period-2 oscillation
	// must be detected, not loop forever.
	complement := fo.MustQuery("c", []string{"x"}, fo.NotF(fo.AtomF("T", "x")))
	p := MustNew("T", 1,
		While{Cond: fo.Truth{Val: true}, Body: []Stmt{Assign{Rel: "T", Q: complement}}},
	)
	_, err := p.Run(fact.FromFacts(ff("S", "a"), ff("S", "b"), ff("T", "a")))
	if !errors.Is(err, ErrNonTerminating) {
		t.Fatalf("err = %v, want ErrNonTerminating", err)
	}
}

func TestLoopConditionMustBeSentence(t *testing.T) {
	if _, err := New("T", 1, While{Cond: fo.AtomF("S", "x")}); err == nil {
		t.Fatal("open loop condition accepted")
	}
}

func TestNestedLoops(t *testing.T) {
	// Outer loop runs while Flag nonempty; inner loop clears Flag via
	// a terminating count-down through relation erasure.
	empty := fo.MustQuery("e", []string{"x"}, fo.Truth{Val: false})
	p := MustNew("Done", 0,
		While{
			Cond: fo.ExistsF([]string{"x"}, fo.AtomF("Flag", "x")),
			Body: []Stmt{
				While{
					Cond: fo.ExistsF([]string{"x"}, fo.AtomF("Flag", "x")),
					Body: []Stmt{Assign{Rel: "Flag", Q: empty}},
				},
			},
		},
		Assign{Rel: "Done", Q: fo.MustQuery("d", nil, fo.Truth{Val: true})},
	)
	out, err := p.Run(fact.FromFacts(ff("Flag", "go")))
	if err != nil {
		t.Fatal(err)
	}
	if out.RelationOr("Done", 0).Len() != 1 {
		t.Error("Done not set")
	}
}

func TestRunDoesNotMutateInput(t *testing.T) {
	p := tcProgram(t)
	in := fact.FromFacts(ff("E", "a", "b"))
	before := in.Clone()
	if _, err := p.Run(in); err != nil {
		t.Fatal(err)
	}
	if !in.Equal(before) {
		t.Error("Run mutated its input")
	}
}

func TestWhileExpressesNonMonotoneQuery(t *testing.T) {
	// Emptiness of S: not monotone, easily in while (even in FO).
	emptiness := fo.MustQuery("ans", nil, fo.NotF(fo.ExistsF([]string{"x"}, fo.AtomF("S", "x"))))
	p := MustNew("Ans", 0, Assign{Rel: "Ans", Q: emptiness})
	q := Query{P: p}

	out, err := q.Eval(fact.FromFacts(ff("T", "a")))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Error("emptiness should hold")
	}
	out, err = q.Eval(fact.FromFacts(ff("S", "a")))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Error("emptiness should fail")
	}
}
