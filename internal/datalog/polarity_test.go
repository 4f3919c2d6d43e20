package datalog

import (
	"strings"
	"testing"

	"declnet/internal/query"
)

func rule(head Atom, body ...Literal) Rule { return Rule{Head: head, Body: body} }
func atom(pred string, vars ...string) Atom {
	ts := make([]Term, len(vars))
	for i, v := range vars {
		ts[i] = V(v)
	}
	return Atom{Pred: pred, Terms: ts}
}

// TestAbsorptionUnionDifference: a ∪ (b ∖ a) = a ∪ b — the canonical
// absorbed negation, semantically monotone and statically accepted.
func TestAbsorptionUnionDifference(t *testing.T) {
	p := MustProgram(
		rule(atom("ans", "X"), Pos("a", V("X"))),
		rule(atom("ans", "X"), Pos("b", V("X")), Neg("a", V("X"))),
	)
	if p.IsPositive() {
		t.Fatal("sanity: the program syntactically contains a negation")
	}
	ev := p.MonotoneEvidence()
	if !ev.Monotone {
		t.Fatalf("absorbed negation must be monotone: %v", ev.Blockers)
	}
	if !strings.Contains(strings.Join(ev.Reasons, "\n"), "absorbed") {
		t.Errorf("reasons should name the absorption: %v", ev.Reasons)
	}
}

// TestAbsorptionRefusesIDB: negation on a predicate the program
// re-derives is never absorbed.
func TestAbsorptionRefusesIDB(t *testing.T) {
	p := MustProgram(
		rule(atom("a", "X"), Pos("seed", V("X"))),
		rule(atom("ans", "X"), Pos("a", V("X"))),
		rule(atom("ans", "X"), Pos("b", V("X")), Neg("a", V("X"))),
	)
	if p.EffectivelyPositive() {
		t.Fatal("negation on a re-derived predicate must not be absorbed")
	}
}

// TestAbsorptionRequiresSubstitution: the absorber must map onto the
// negated literal consistently; swapped columns do not absorb.
func TestAbsorptionRequiresSubstitution(t *testing.T) {
	p := MustProgram(
		rule(atom("ans", "X", "Y"), Pos("a", V("Y"), V("X"))), // columns swapped
		rule(atom("ans", "X", "Y"), Pos("b", V("X"), V("Y")), Neg("a", V("X"), V("Y"))),
	)
	if p.EffectivelyPositive() {
		t.Fatal("column-swapped absorber must not match")
	}
	ok := MustProgram(
		rule(atom("ans", "X", "Y"), Pos("a", V("X"), V("Y"))),
		rule(atom("ans", "X", "Y"), Pos("b", V("X"), V("Y")), Neg("a", V("X"), V("Y"))),
	)
	if !ok.EffectivelyPositive() {
		t.Fatal("aligned absorber must match")
	}
}

// TestAbsorptionSemantics: the absorbed program really computes a ∪ b
// (differential check against the two-rule positive program).
func TestAbsorptionSemantics(t *testing.T) {
	p := MustProgram(
		rule(atom("ans", "X"), Pos("a", V("X"))),
		rule(atom("ans", "X"), Pos("b", V("X")), Neg("a", V("X"))),
	)
	q := MustQuery(p, "ans")
	in, err := ParseFacts(`a(p). a(q). b(q). b(r).`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("a ∪ b should have 3 tuples, got %v", out)
	}
}

func TestQueryDepsComposedPolarity(t *testing.T) {
	// ans reads c through two negations: positive. b through one:
	// negative. a directly: positive.
	p := MustProgram(
		rule(atom("neg1", "X"), Pos("u", V("X")), Neg("b", V("X"))),
		rule(atom("neg2", "X"), Pos("u", V("X")), Neg("c", V("X"))),
		rule(atom("negneg", "X"), Pos("u", V("X")), Neg("neg2", V("X"))),
		rule(atom("ans", "X"), Pos("a", V("X")), Pos("neg1", V("X")), Pos("negneg", V("X"))),
	)
	q := MustQuery(p, "ans")
	pol := map[string]query.Polarity{}
	for _, d := range q.Summary().Deps {
		pol[d.Rel] = d.Polarity
	}
	if pol["a"] != query.PolPos {
		t.Errorf("a = %s, want +", pol["a"])
	}
	if pol["b"] != query.PolNeg {
		t.Errorf("b = %s, want -", pol["b"])
	}
	if pol["c"] != query.PolPos {
		t.Errorf("c (double negation) = %s, want +", pol["c"])
	}
}

func TestPossiblyNonemptyFixpoint(t *testing.T) {
	p := MustProgram(
		rule(atom("mid", "X"), Pos("src", V("X"))),
		rule(atom("ans", "X"), Pos("mid", V("X")), Pos("aux", V("X"))),
	)
	q := MustQuery(p, "ans")
	if q.Summary().MayProduce(func(rel string) bool { return rel == "src" }) {
		t.Fatal("aux never populated: ans cannot fire")
	}
	if !q.Summary().MayProduce(func(rel string) bool { return rel == "src" || rel == "aux" }) {
		t.Fatal("both populated: ans may fire")
	}
	// A fact rule fires from nothing.
	pf := MustProgram(
		Rule{Head: Atom{Pred: "ans", Terms: []Term{C("k")}}},
	)
	qf := MustQuery(pf, "ans")
	if !qf.Summary().MayProduce(func(string) bool { return false }) {
		t.Fatal("ground fact rule needs no populated relations")
	}
}
