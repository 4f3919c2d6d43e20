package while

import (
	"sort"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/query"
)

// TestAssignmentFreeIsMonotone: the empty program expresses the
// identity query on Out — monotone, and its only input relation is
// Out itself.
func TestAssignmentFreeIsMonotone(t *testing.T) {
	q := Query{P: MustNew("S", 1)}
	if !q.Summary().Evidence.Monotone {
		t.Fatal("assignment-free program must be monotone (identity query)")
	}
	if rels := q.Summary().Reads; len(rels) != 1 || rels[0] != "S" {
		t.Fatalf("Rels = %v, want [S]", rels)
	}
	// And it really is the identity.
	out, err := q.Eval(fact.FromFacts(ff("S", "a"), ff("T", "b")))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 || !out.Contains(fact.Tuple{"a"}) {
		t.Fatalf("out = %v", out)
	}
}

// TestStraightLineMonotone: a chain of monotone assignments composes.
func TestStraightLineMonotone(t *testing.T) {
	p := MustNew("Ans", 1,
		Assign{Rel: "Mid", Q: fo.MustQuery("m", []string{"x"}, fo.AtomF("E", "x"))},
		Assign{Rel: "Ans", Q: fo.MustQuery("a", []string{"x"}, fo.AtomF("Mid", "x"))},
	)
	q := Query{P: p}
	if !q.Summary().Evidence.Monotone {
		t.Fatalf("straight-line monotone composition rejected: %+v", q.Summary().Evidence.Blockers)
	}
	if rels := q.Summary().Reads; len(rels) != 1 || rels[0] != "E" {
		t.Fatalf("Rels = %v, want [E] (Mid and Ans are program variables)", rels)
	}
}

// TestNonMonotoneAssignmentDemotes: reading through negation blocks
// the chain, and the evidence names the position.
func TestNonMonotoneAssignmentDemotes(t *testing.T) {
	p := MustNew("Ans", 1,
		Assign{Rel: "Ans", Q: fo.MustQuery("a", []string{"x"},
			fo.AndF(fo.AtomF("E", "x"), fo.NotF(fo.AtomF("F", "x"))))},
	)
	q := Query{P: p}
	ev := q.Summary().Evidence
	if ev.Monotone {
		t.Fatal("negation must block the proof")
	}
	if len(ev.Blockers) == 0 {
		t.Fatal("negative verdict must carry blockers")
	}
}

// TestInflationaryLoopAccepted: T := T ∪ step(T) under a positive
// condition is monotone — the loop only grows T from a monotone seed.
func TestInflationaryLoopAccepted(t *testing.T) {
	grow := fo.MustQuery("g", []string{"x"},
		fo.OrF(
			fo.AtomF("T", "x"),
			fo.ExistsF([]string{"y"}, fo.AndF(fo.AtomF("T", "y"), fo.AtomF("E", "y", "x"))),
		))
	p := MustNew("T", 1,
		Assign{Rel: "T", Q: fo.MustQuery("seed", []string{"x"}, fo.AtomF("S", "x"))},
		While{
			Cond: fo.ExistsF([]string{"x"}, fo.AtomF("T", "x")),
			Body: []Stmt{Assign{Rel: "T", Q: grow}},
		},
	)
	q := Query{P: p}
	if !q.Summary().Evidence.Monotone {
		t.Fatalf("inflationary loop rejected: %+v", q.Summary().Evidence.Blockers)
	}
}

// TestTransitiveClosureStaysUnknown: the classic TC program computes a
// monotone query but its loop body takes a difference — the analyzer
// must NOT claim monotonicity (tracked completeness gap), matching the
// pre-analyzer behaviour of the adapter.
func TestTransitiveClosureStaysUnknown(t *testing.T) {
	q := Query{P: tcProgram(t)}
	if q.Summary().Evidence.Monotone {
		t.Fatal("TC's difference-taking loop must stay unproved")
	}
}

// TestRelsLoopSemantics: a relation read by a loop body before the
// loop assigns it is an input; assignments inside a loop are not
// definite after it.
func TestRelsLoopSemantics(t *testing.T) {
	p := MustNew("Out", 1,
		While{
			Cond: fo.ExistsF([]string{"x"}, fo.AtomF("C", "x")),
			Body: []Stmt{
				Assign{Rel: "A", Q: fo.MustQuery("a", []string{"x"}, fo.AtomF("B", "x"))},
				Assign{Rel: "B", Q: fo.MustQuery("b", []string{"x"}, fo.AtomF("A", "x"))},
			},
		},
	)
	q := Query{P: p}
	rels := q.Summary().Reads
	sort.Strings(rels)
	// C (condition), B (read before assignment in the first
	// iteration), Out (never definitely assigned). A is assigned
	// before the body reads it.
	want := []string{"B", "C", "Out"}
	if len(rels) != len(want) {
		t.Fatalf("Rels = %v, want %v", rels, want)
	}
	for i := range want {
		if rels[i] != want[i] {
			t.Fatalf("Rels = %v, want %v", rels, want)
		}
	}
}

// TestQueryDepsPolarity: monotone program → positive deps; unproved
// program → guard deps.
func TestQueryDepsPolarity(t *testing.T) {
	mono := Query{P: MustNew("S", 1)}
	for _, d := range mono.Summary().Deps {
		if d.Polarity != query.PolPos {
			t.Errorf("monotone program dep %s: polarity %s, want +", d.Rel, d.Polarity)
		}
	}
	tc := Query{P: tcProgram(t)}
	for _, d := range tc.Summary().Deps {
		if d.Polarity != query.PolGuard {
			t.Errorf("unproved program dep %s: polarity %s, want ?", d.Rel, d.Polarity)
		}
	}
}
