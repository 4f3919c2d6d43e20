package fo

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"declnet/internal/fact"
)

// subset reports whether every tuple of a is in b.
func subset(a, b *fact.Relation) bool {
	ok := true
	a.Each(func(t fact.Tuple) bool {
		if !b.Contains(t) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

func TestFastPathShadowedHeadVariable(t *testing.T) {
	// Head x, body "exists x S(x)": the quantified x shadows the head.
	// The query returns adom when S is nonempty — NOT S itself. The
	// quantified x is renamed apart, so the branch scans S(x') and
	// joins the head x with the active domain.
	q := MustQuery("shadow", []string{"x"}, ExistsF([]string{"x"}, AtomF("S", "x")))
	if ex := q.ExplainPlan(); !strings.Contains(ex, "scan S(x')") || !strings.Contains(ex, adomRel+"(x)") {
		t.Fatalf("shadowed x should be renamed apart and x joined with adom:\n%s", ex)
	}
	I := fact.FromFacts(fact.NewFact("S", "a"), fact.NewFact("T", "b"))
	out, err := q.Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("out = %v, want all of adom", out)
	}
	// Sibling quantifiers reusing a name denote distinct variables.
	sib := MustQuery("sib", []string{"x"}, AndF(
		ExistsF([]string{"y"}, AtomF("R", "x", "y")),
		ExistsF([]string{"y"}, AtomF("S", "x", "y"))))
	J := fact.FromFacts(fact.NewFact("R", "a", "b"), fact.NewFact("S", "a", "c"))
	got, err := sib.Eval(J)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := sib.EvalGeneric(J); !got.Equal(want) || got.Len() != 1 {
		t.Fatalf("sibling quantifiers: got %v, want %v", got, want)
	}
	// Top-level disjuncts may reuse a name; a disjunction that
	// collapses into its conjunction (a false disjunct drops out) may
	// not.
	for _, src := range []string{
		"(exists y R(x, y)) | (exists y S(x, y))",
		"(false | exists y R(x, y)) & (exists y S(x, y))",
	} {
		q := MustQuery("reuse", []string{"x"}, MustParse(src))
		got, err := q.Eval(J)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := q.EvalGeneric(J); !got.Equal(want) || got.Len() != 1 {
			t.Fatalf("%s: got %v, want %v", src, got, want)
		}
	}
	if ex := MustQuery("top", []string{"x"}, MustParse("(exists y R(x, y)) | (exists y S(x, y))")).ExplainPlan(); strings.Contains(ex, "'") {
		t.Fatalf("top-level disjuncts need no renaming:\n%s", ex)
	}
	// ∃z over a variable nothing mentions ranges over an empty active
	// domain when only a 0-ary fact holds.
	unused := MustQuery("unused", nil, ExistsF([]string{"z"}, AtomF("P")))
	if got, err := unused.Eval(fact.FromFacts(fact.NewFact("P"))); err != nil || !got.Empty() {
		t.Fatalf("exists z P() over an empty active domain = %v, %v; want empty", got, err)
	}
}

func TestFastPathMatchesGenericOnRandomFormulas(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	vals := []fact.Value{"a", "b", "c", "d"}

	randInstance := func() *fact.Instance {
		I := fact.NewInstance()
		for k := 0; k < 2+r.Intn(8); k++ {
			I.AddFact(fact.NewFact("R", vals[r.Intn(4)], vals[r.Intn(4)]))
		}
		for k := 0; k < r.Intn(4); k++ {
			I.AddFact(fact.NewFact("S", vals[r.Intn(4)]))
		}
		return I
	}

	queries := []*Query{
		MustQuery("q1", []string{"x", "y"},
			OrF(AtomF("R", "x", "y"),
				ExistsF([]string{"z"}, AndF(AtomF("R", "x", "z"), AtomF("R", "z", "y"))))),
		MustQuery("q2", []string{"x"},
			OrF(AtomF("S", "x"),
				ExistsF([]string{"y"}, AndF(AtomF("R", "x", "y"), AtomF("S", "y"))))),
		MustQuery("q3", []string{"x", "x"}, AtomF("S", "x")),
		MustQuery("q4", []string{"x"},
			AndF(AtomF("S", "x"), ExistsF([]string{"y"}, AtomF("R", "x", "y")))),
		MustQuery("q5", []string{"x"},
			OrF(AtomF("S", "x"), NotF(ExistsF([]string{"y"}, AtomF("R", "x", "y"))))),
		MustQuery("q6", nil,
			ExistsF([]string{"x", "y"}, AndF(AtomF("R", "x", "y"), AtomF("S", "x")))),
		MustQuery("q7", []string{"x"},
			AtomT("R", V("x"), C("b"))),
		// Unconstrained existential alongside an atom.
		MustQuery("q8", []string{"x"},
			ExistsF([]string{"z"}, AtomF("S", "x"))),
	}
	for trial := 0; trial < 60; trial++ {
		I := randInstance()
		for _, q := range queries {
			fast, err := q.Eval(I)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			slow, err := q.EvalGeneric(I)
			if err != nil {
				t.Fatalf("%s generic: %v", q.Name, err)
			}
			if !fast.Equal(slow) {
				t.Fatalf("%s: fast %v != generic %v on %v", q.Name, fast, slow, I)
			}
		}
	}
}

func TestFastPathUsedForPositiveQueries(t *testing.T) {
	q := MustQuery("tc", []string{"x", "y"},
		OrF(AtomF("S", "x", "y"),
			ExistsF([]string{"z"}, AndF(AtomF("T", "x", "z"), AtomF("T", "z", "y")))))
	if len(q.branches) != 2 || !q.branches[0].pinnable() || !q.branches[1].pinnable() {
		t.Errorf("branches = %+v, want two plain join branches", q.branches)
	}
}

// TestEvalDeltaRespectsClosedGuards is the regression test for the
// semi-naive exactness of branches with a closed conjunct: a branch
// whose closed conjunct (a sentence, read as a 0-ary inner query) is
// false must contribute nothing to EvalDelta,
// which must always satisfy EvalDelta(full, delta) ⊆ Eval(full).
func TestEvalDeltaRespectsClosedGuards(t *testing.T) {
	q := MustQuery("g", []string{"x"},
		AndF(
			AtomF("R", "x"),
			OrF(AtomT("S", C("a")), AtomT("T", C("a"))),
		))
	if !q.CanDelta() {
		t.Fatal("query should be delta-evaluable (positive)")
	}
	// S and T are empty: the closed conjunct is false everywhere, so the
	// query is empty no matter what R holds.
	full := fact.FromFacts(fact.NewFact("R", "v"))
	delta := fact.FromFacts(fact.NewFact("R", "v"))
	whole, err := q.Eval(full)
	if err != nil {
		t.Fatal(err)
	}
	d, err := q.EvalDelta(full, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !d.SubsetOf(whole) {
		t.Fatalf("EvalDelta %v not a subset of Eval %v", d, whole)
	}
	if whole.Len() != 0 || d.Len() != 0 {
		t.Fatalf("query over a false closed conjunct must be empty: Eval=%v EvalDelta=%v", whole, d)
	}

	// With the conjunct true, the delta derivation must appear.
	full2 := fact.FromFacts(fact.NewFact("R", "v"), fact.NewFact("S", "a"))
	d2, err := q.EvalDelta(full2, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Contains(fact.Tuple{"v"}) {
		t.Fatalf("EvalDelta missed derivation with a true closed conjunct: %v", d2)
	}
}

// TestEvalDeltaOverDisjointDelta: a delta whose relations the full
// instance lacks entirely (a transducer state and its received
// messages) is evaluated as if the union had been built — for pinned
// joins, for a second atom over the delta relation, and for a ground
// atom over the state.
func TestEvalDeltaOverDisjointDelta(t *testing.T) {
	state := fact.FromFacts(fact.NewFact("S", "a", "b"), fact.NewFact("S", "b", "c"))
	delta := fact.FromFacts(fact.NewFact("P", "b"))
	union := fact.Union(state, delta)
	for _, q := range []*Query{
		MustQuery("join", []string{"x", "y"}, AndF(AtomF("P", "x"), AtomF("S", "x", "y"))),
		MustQuery("pair", []string{"x", "y"}, AndF(AtomF("P", "x"), AtomF("P", "y"))),
		MustQuery("guarded", []string{"x"}, AndF(AtomF("P", "x"), AtomT("S", C("a"), C("b")))),
	} {
		want, err := q.Eval(union)
		if err != nil {
			t.Fatal(err)
		}
		got, err := q.EvalDelta(state, delta)
		if err != nil {
			t.Fatal(err)
		}
		if want.Empty() || !got.Equal(want) {
			t.Errorf("%s: EvalDelta(state, delta) = %v, want Eval(state ∪ delta) = %v", q.Name, got, want)
		}
	}
}

// TestNestedGuardedBranchNotDropped: a nested And whose sub-branch
// carries a closed conjunct must keep it when absorbed into an outer
// conjunction (regression: the conjunct was silently discarded).
func TestNestedGuardedBranchNotDropped(t *testing.T) {
	q := MustQuery("g", []string{"x"},
		AndF(
			AndF(AtomF("R", "x"), OrF(AtomT("S", C("a")), AtomT("T", C("a")))),
			AtomF("U", "x"),
		))
	I := fact.FromFacts(fact.NewFact("R", "v"), fact.NewFact("U", "v"))
	got, err := q.Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.EvalGeneric(I)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("fast path %v != generic %v (S, T empty: must be empty)", got, want)
	}
	if got.Len() != 0 {
		t.Fatalf("closed conjunct over empty S, T must kill the branch; got %v", got)
	}

	// And with the conjunct satisfied, derivation goes through.
	J := fact.FromFacts(fact.NewFact("R", "v"), fact.NewFact("U", "v"), fact.NewFact("T", "a"))
	got2, err := q.Eval(J)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Contains(fact.Tuple{"v"}) {
		t.Fatalf("derivation missing with the conjunct satisfied: %v", got2)
	}
}

// TestNestedOpenGuardAbsorption pins the open half of the absorption
// invariant: a nested And carrying a negated atom with free variables
// (!S(x)) must keep that anti-join when its atoms are absorbed
// into an enclosing conjunction — dropping it would derive tuples the
// formula forbids.
func TestNestedOpenGuardAbsorption(t *testing.T) {
	q := MustQuery("ng", []string{"x", "y"},
		AndF(
			AndF(AtomF("E", "x", "y"), NotF(AtomF("S", "x"))),
			AtomF("F", "y", "x"),
		))
	if len(q.branches) != 1 {
		t.Fatalf("branches = %+v, want one branch", q.branches)
	}
	b := q.branches[0]
	if len(b.atoms) != 2 || b.nAnti != 1 {
		t.Fatalf("atoms/anti-joins = %d/%d, want 2 absorbed atoms and 1 carried anti-join", len(b.atoms), b.nAnti)
	}
	// S(a) holds: the pair (a, b) joins E and F but the absorbed anti-join
	// must suppress it; (c, d) passes.
	I := fact.FromFacts(
		fact.NewFact("E", "a", "b"), fact.NewFact("F", "b", "a"),
		fact.NewFact("E", "c", "d"), fact.NewFact("F", "d", "c"),
		fact.NewFact("S", "a"),
	)
	got, err := q.Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.EvalGeneric(I)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("fast %v != generic %v", got, want)
	}
	if got.Len() != 1 || !got.Contains(fact.Tuple{"c", "d"}) {
		t.Fatalf("got %v, want exactly {(c, d)}", got)
	}
}

// TestNestedResidualEqAbsorption: a residual (in)equality inside a
// nested conjunction is absorbed as a formula and re-classified
// against the combined atom set — it must come back as a lowered eq
// filter of the outer branch and must still
// filter.
func TestNestedResidualEqAbsorption(t *testing.T) {
	q := MustQuery("ne", []string{"x", "y"},
		AndF(
			AndF(AtomF("E", "x", "y"), NotF(Eq{L: V("x"), R: V("y")})),
			AtomF("F", "y", "x"),
		))
	if len(q.branches) != 1 {
		t.Fatalf("branches = %+v, want one branch", q.branches)
	}
	b := q.branches[0]
	if b.nEqs != 1 || !b.pinnable() || !strings.Contains(q.ExplainPlan(), "check x != y") {
		t.Fatalf("want the inequality absorbed as one filter of a plain join:\n%s", q.ExplainPlan())
	}
	I := fact.FromFacts(
		fact.NewFact("E", "a", "a"), fact.NewFact("F", "a", "a"),
		fact.NewFact("E", "a", "b"), fact.NewFact("F", "b", "a"),
	)
	got, err := q.Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.EvalGeneric(I)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("fast %v != generic %v", got, want)
	}
	if got.Len() != 1 || !got.Contains(fact.Tuple{"a", "b"}) {
		t.Fatalf("got %v, want exactly {(a, b)}", got)
	}
}

// TestResidualEqLoweredNotGuarded pins the acceptance criterion of the
// residual-equality lowering on the cycles-class shape
// exists y,z (E(x,y) & F(y,z) & x = z): the equality compiles to a
// plan filter op (ExplainPlan shows "check"), the
// branch stays delta-pinnable, and results agree with the generic
// evaluator.
func TestResidualEqLoweredNotGuarded(t *testing.T) {
	q := MustQuery("cyc", []string{"x"},
		ExistsF([]string{"y", "z"},
			AndF(AtomF("E", "x", "y"), AtomF("F", "y", "z"), Eq{L: V("x"), R: V("z")})))
	if len(q.branches) != 1 {
		t.Fatalf("branches = %+v, want one branch", q.branches)
	}
	if b := q.branches[0]; b.nEqs != 1 || !b.pinnable() {
		t.Fatalf("branch = %+v: equality must lower to a filter on a plain join", b)
	}
	if !q.CanDelta() {
		t.Fatal("eq-filter branch must stay delta-evaluable")
	}
	ex := q.ExplainPlan()
	if !strings.Contains(ex, "eq filters") {
		t.Errorf("ExplainPlan should label the eq filter branch:\n%s", ex)
	}
	if !strings.Contains(ex, "check ") {
		t.Errorf("ExplainPlan should show a check op for the equality:\n%s", ex)
	}
	if strings.Contains(ex, "subquer") || strings.Contains(ex, adomRel) {
		t.Errorf("ExplainPlan must lower the residual equality to a filter of the join:\n%s", ex)
	}

	I := fact.FromFacts(
		fact.NewFact("E", "a", "b"), fact.NewFact("F", "b", "a"),
		fact.NewFact("E", "a", "c"), fact.NewFact("F", "c", "d"),
	)
	got, err := q.Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.EvalGeneric(I)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("fast %v != generic %v", got, want)
	}
	if got.Len() != 1 || !got.Contains(fact.Tuple{"a"}) {
		t.Fatalf("got %v, want exactly {(a)}", got)
	}

	// Delta pinning with the filter in place: adding a new E edge that
	// closes a cycle must surface through EvalDelta.
	full := I.Clone()
	full.AddFact(fact.NewFact("E", "d", "c"))
	full.AddFact(fact.NewFact("F", "c", "d"))
	delta := fact.FromFacts(fact.NewFact("E", "d", "c"))
	d, err := q.EvalDelta(full, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Contains(fact.Tuple{"d"}) {
		t.Fatalf("EvalDelta missed the new cycle: %v", d)
	}
	whole, err := q.Eval(full)
	if err != nil {
		t.Fatal(err)
	}
	if !subset(d, whole) {
		t.Fatalf("EvalDelta %v not a subset of Eval %v", d, whole)
	}
}

// TestEvalConcurrentInnerQueries: one query whose branches read inner
// queries and the active domain, evaluated from several goroutines at
// once, each on its own instance (as the parallel runtime does with
// per-node states): the plans and their schedule caches are shared,
// the overlays are per evaluation, and every answer matches the
// oracle. Run under -race.
func TestEvalConcurrentInnerQueries(t *testing.T) {
	q := MustQuery("mix", []string{"x", "y"}, MustParse(
		"(R(x, y) & !S(x)) | (S(x) & forall z (R(x, z) | z = y)) | (S(y) & !(exists w (R(w, x) & S(w))))"))
	const workers = 8
	insts := make([]*fact.Instance, workers)
	wants := make([]*fact.Relation, workers)
	for g := range insts {
		I := fact.FromFacts(
			fact.NewFact("R", "a", "b"), fact.NewFact("R", "b", fact.Value(fmt.Sprint("c", g%3))),
			fact.NewFact("S", "a"), fact.NewFact("S", fact.Value(fmt.Sprint("c", g%2))))
		want, err := q.EvalGeneric(I)
		if err != nil {
			t.Fatal(err)
		}
		insts[g], wants[g] = I, want
	}
	var wg sync.WaitGroup
	for g := range insts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				got, err := q.Eval(insts[g])
				if err != nil || !got.Equal(wants[g]) {
					t.Errorf("goroutine %d: Eval = %v, %v; oracle %v", g, got, err, wants[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
