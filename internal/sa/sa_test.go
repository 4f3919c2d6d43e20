package sa

import (
	"strings"
	"testing"

	"declnet/internal/datalog"
	"declnet/internal/dedalus"
	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/query"
	"declnet/internal/transducer"
	"declnet/internal/while"
)

// TestRefinedWaivesProvablyEmptyDelete: a deletion query that is
// non-monotone but reads a never-inserted memory relation is provably
// empty; the refined class restores both inflationary and monotone
// while the seed classification rejects both.
func TestRefinedWaivesProvablyEmptyDelete(t *testing.T) {
	schema := transducer.Schema{
		In:       fact.Schema{"A": 1},
		Msg:      fact.Schema{"M": 1},
		Mem:      fact.Schema{"P": 1, "Ghost": 1},
		OutArity: 1,
	}
	snd := map[string]query.Query{
		"M": fo.MustQuery("sndM", []string{"x"}, fo.AtomF("A", "x")),
	}
	ins := map[string]query.Query{
		"P": fo.MustQuery("insP", []string{"x"}, fo.AtomF("M", "x")),
	}
	del := map[string]query.Query{
		"P": fo.MustQuery("delP", []string{"x"},
			fo.AndF(fo.AtomF("Ghost", "x"), fo.NotF(fo.AtomF("A", "x")))),
	}
	out := fo.MustQuery("out", []string{"x"}, fo.AtomF("P", "x"))
	tr := transducer.MustNew("waiver", schema, snd, ins, del, out)

	rep := Analyze(tr)
	if rep.Class.Monotone || rep.Class.Inflationary {
		t.Fatalf("seed class unexpectedly accepts: %s", rep.Class)
	}
	if !rep.Refined.Monotone || !rep.Refined.Inflationary {
		t.Fatalf("refined class should waive the provably-empty delete: %s", rep.Refined)
	}
	foundDel := false
	for _, q := range rep.EmptyQueries {
		if q.Kind == "delete" && q.Rel == "P" {
			foundDel = true
		}
	}
	if !foundDel {
		t.Fatalf("delete P should be provably empty; got %v", rep.EmptyQueries)
	}
	for _, rel := range rep.Populated {
		if rel == "Ghost" {
			t.Fatal("Ghost has no insert query and must not be populatable")
		}
	}
	if !rep.Stratified.OK {
		t.Fatalf("no live negation cycle expected: %v", rep.Stratified.Witnesses)
	}
}

// TestRefinedNeverShrinks: over the whole zoo of schema shapes the
// refined class must keep every bit the seed class grants (widening,
// never shrinking).
func TestRefinedNeverShrinks(t *testing.T) {
	schema := transducer.Schema{In: fact.Schema{"S": 2}, OutArity: 2}
	out := fo.MustQuery("out", []string{"x", "y"}, fo.AtomF("S", "x", "y"))
	tr := transducer.MustNew("id2", schema, nil, nil, nil, out)
	rep := Analyze(tr)
	if rep.Class.Monotone && !rep.Refined.Monotone {
		t.Fatal("refinement shrank monotone")
	}
	if rep.Class.Oblivious && !rep.Refined.Oblivious {
		t.Fatal("refinement shrank oblivious")
	}
	if rep.Class.Inflationary && !rep.Refined.Inflationary {
		t.Fatal("refinement shrank inflationary")
	}
}

// TestStratificationCycleWitness: inserting ¬T into T is a negation on
// a dependency cycle (via memory persistence); the verdict must carry
// a cycle witness naming both edges.
func TestStratificationCycleWitness(t *testing.T) {
	schema := transducer.Schema{
		In:       fact.Schema{"A": 1},
		Mem:      fact.Schema{"T": 1},
		OutArity: 1,
	}
	ins := map[string]query.Query{
		"T": fo.MustQuery("insT", []string{"x"},
			fo.AndF(fo.AtomF("A", "x"), fo.NotF(fo.AtomF("T", "x")))),
	}
	out := fo.MustQuery("out", []string{"x"}, fo.AtomF("T", "x"))
	tr := transducer.MustNew("negcycle", schema, nil, ins, nil, out)

	rep := Analyze(tr)
	if rep.Stratified.OK {
		t.Fatal("negation through memory must break stratification")
	}
	w := rep.Stratified.Witnesses[0]
	if w.Relation != "T" {
		t.Errorf("witness relation = %q, want T", w.Relation)
	}
	chain := strings.Join(w.Reasons, "\n")
	if !strings.Contains(chain, "cycle") || !strings.Contains(chain, "polarity -") {
		t.Errorf("cycle witness lacks the negative edge:\n%s", chain)
	}
}

// TestDeletionInvertsPolarity: a delete query reading A positively
// makes the memory relation depend NEGATIVELY on A.
func TestDeletionInvertsPolarity(t *testing.T) {
	schema := transducer.Schema{
		In:       fact.Schema{"A": 1, "B": 1},
		Mem:      fact.Schema{"P": 1},
		OutArity: 1,
	}
	ins := map[string]query.Query{
		"P": fo.MustQuery("insP", []string{"x"}, fo.AtomF("B", "x")),
	}
	del := map[string]query.Query{
		"P": fo.MustQuery("delP", []string{"x"}, fo.AtomF("A", "x")),
	}
	out := fo.MustQuery("out", []string{"x"}, fo.AtomF("P", "x"))
	tr := transducer.MustNew("delpol", schema, nil, ins, del, out)

	rep := Analyze(tr)
	found := false
	for _, e := range rep.Edges {
		if e.From == "P" && e.To == "A" && e.Query.Kind == "delete" {
			found = true
			if e.Polarity != query.PolNeg {
				t.Errorf("delete edge polarity = %s, want -", e.Polarity)
			}
		}
	}
	if !found {
		t.Fatalf("missing delete edge P→A in %v", rep.Edges)
	}
	if v := rep.RelMonotone["P"]; v.OK {
		t.Error("P with a live delete query must not be per-relation monotone")
	}
}

// TestWhileIdentityAccepted: the assignment-free while-program (the
// identity query) is statically monotone and the transducer carrying
// it classifies monotone — the seed check before the analyzer
// classified EVERY while query non-monotone.
func TestWhileIdentityAccepted(t *testing.T) {
	p := while.MustNew("S", 1)
	q := while.Query{P: p}
	if !q.Summary().Evidence.Monotone {
		t.Fatal("assignment-free while query must be monotone")
	}
	schema := transducer.Schema{In: fact.Schema{"S": 1}, OutArity: 1}
	tr := transducer.MustNew("whileid", schema, nil, nil, nil, q)
	rep := Analyze(tr)
	if !rep.Monotone.OK {
		t.Fatalf("while identity should be statically monotone: %+v", rep.Monotone.Witnesses)
	}
}

// TestDatalogAbsorptionAccepted: negation only on a never-rederived
// input relation with an absorbing union rule is effectively monotone.
func TestDatalogAbsorptionAccepted(t *testing.T) {
	prog := datalog.MustProgram(
		datalog.Rule{Head: datalog.Atom{Pred: "ans", Terms: []datalog.Term{datalog.V("X")}},
			Body: []datalog.Literal{datalog.Pos("a", datalog.V("X"))}},
		datalog.Rule{Head: datalog.Atom{Pred: "ans", Terms: []datalog.Term{datalog.V("X")}},
			Body: []datalog.Literal{datalog.Pos("b", datalog.V("X")), datalog.Neg("a", datalog.V("X"))}},
	)
	q := datalog.MustQuery(prog, "ans")
	if !q.Summary().Evidence.Monotone {
		t.Fatal("absorbed negation must be accepted as monotone")
	}
	schema := transducer.Schema{In: fact.Schema{"a": 1, "b": 1}, OutArity: 1}
	tr := transducer.MustNew("absorb", schema, nil, nil, nil, q)
	rep := Analyze(tr)
	if !rep.Monotone.OK {
		t.Fatalf("absorption transducer should be statically monotone: %+v", rep.Monotone.Witnesses)
	}
	if !rep.Stratified.OK {
		t.Fatalf("absorbed negation must not surface as a stratification cycle: %+v", rep.Stratified.Witnesses)
	}
}

// TestDedalusTemporalStratification: a same-slice negation cycle is a
// violation with a witness; the same cycle through an inductive edge
// is temporally stratified (time orders the recursion).
func TestDedalusTemporalStratification(t *testing.T) {
	// Raw Program structs: dedalus.New would reject the deductive
	// violation outright — the analyzer must produce the witness the
	// constructor's error hides.
	bad := &dedalus.Program{Rules: []dedalus.Rule{
		{Kind: dedalus.Deductive, Head: dedalus.Atom("p", "X"),
			Body: []datalog.Literal{datalog.Pos("q", datalog.V("X")), datalog.Neg("p", datalog.V("X"))}},
	}}
	rep := AnalyzeDedalus(bad)
	if rep.TemporallyStratified.OK {
		t.Fatal("deductive negation self-cycle must violate temporal stratification")
	}
	if len(rep.TemporallyStratified.Witnesses) == 0 ||
		len(rep.TemporallyStratified.Witnesses[0].Reasons) == 0 {
		t.Fatal("violation must carry a cycle witness")
	}

	good := &dedalus.Program{Rules: []dedalus.Rule{
		{Kind: dedalus.Inductive, Head: dedalus.Atom("p", "X"),
			Body: []datalog.Literal{datalog.Pos("q", datalog.V("X")), datalog.Neg("p", datalog.V("X"))}},
	}}
	rep = AnalyzeDedalus(good)
	if !rep.TemporallyStratified.OK {
		t.Fatalf("negation through NEXT is time-ordered and admissible: %+v",
			rep.TemporallyStratified.Witnesses)
	}
	// Temporality labels must survive into the edges.
	for _, e := range rep.Edges {
		if e.Temporality != query.TempNext {
			t.Errorf("edge %s: temporality = %s, want next", e, e.Temporality)
		}
	}
}

// TestFindingsRender: findings and report rendering stay well-formed.
func TestFindingsRender(t *testing.T) {
	schema := transducer.Schema{In: fact.Schema{"S": 1}, OutArity: 1}
	out := fo.MustQuery("out", []string{"x"}, fo.AtomF("S", "x"))
	tr := transducer.MustNew("render", schema, nil, nil, nil, out)
	rep := Analyze(tr)
	if rep.Warnings() != 0 {
		t.Fatalf("clean transducer has warnings: %v", rep.Findings())
	}
	s := rep.String()
	for _, want := range []string{"class (seed)", "class (refined)", "dependency graph"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering lacks %q:\n%s", want, s)
		}
	}
}
