package fo

import (
	"math/rand"
	"strings"
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

// evalGeneric evaluates the query with the generic active-domain
// enumerator, bypassing the join fast path.
func evalGeneric(q *Query, I *fact.Instance) (*fact.Relation, error) {
	return q.EvalGeneric(I)
}

func TestFastPathShadowedHeadVariable(t *testing.T) {
	// Head x, body "exists x S(x)": the quantified x shadows the head.
	// The query returns adom when S is nonempty — NOT S itself.
	q := MustQuery("shadow", []string{"x"}, ExistsF([]string{"x"}, AtomF("S", "x")))
	if q.branches != nil {
		t.Fatal("shadowed query must not use the fast path")
	}
	I := fact.FromFacts(fact.NewFact("S", "a"), fact.NewFact("T", "b"))
	out, err := q.Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("out = %v, want all of adom", out)
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
			slow, err := evalGeneric(q, I)
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
	if q.branches == nil {
		t.Fatal("positive query should enable the fast path")
	}
	if len(q.branches) != 2 || q.branches[0].slow != nil || q.branches[1].slow != nil {
		t.Errorf("branches = %+v", q.branches)
	}
}

// TestEvalDeltaRespectsClosedGuards is the regression test for the
// semi-naive exactness of guarded branches: a branch whose closed
// guard (a sentence) is false must contribute nothing to EvalDelta,
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
	// S and T are empty: the closed guard is false everywhere, so the
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
		t.Fatalf("query over false guard must be empty: Eval=%v EvalDelta=%v", whole, d)
	}

	// With the guard true, the delta derivation must appear.
	full2 := fact.FromFacts(fact.NewFact("R", "v"), fact.NewFact("S", "a"))
	d2, err := q.EvalDelta(full2, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Contains(fact.Tuple{"v"}) {
		t.Fatalf("EvalDelta missed derivation with true guard: %v", d2)
	}
}

// TestEvalDeltaOverDisjointDelta: a delta whose relations the full
// instance lacks entirely (a transducer state and its received
// messages) is evaluated as if the union had been built — for pinned
// joins, for a second atom over the delta relation, and for guarded
// branches that re-evaluate in full.
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
// carries a closed guard must keep that guard when absorbed into an
// outer conjunction (regression: the guard was silently discarded).
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
		t.Fatalf("closed guard over empty S, T must kill the branch; got %v", got)
	}

	// And with the guard satisfied, derivation goes through.
	J := fact.FromFacts(fact.NewFact("R", "v"), fact.NewFact("U", "v"), fact.NewFact("T", "a"))
	got2, err := q.Eval(J)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Contains(fact.Tuple{"v"}) {
		t.Fatalf("derivation missing with guard satisfied: %v", got2)
	}
}

// TestNestedOpenGuardAbsorption pins the open-guard half of the
// absorption invariant: a nested And carrying a guard with free
// variables (!S(x)) must keep that guard when its atoms are absorbed
// into an enclosing conjunction — dropping it would derive tuples the
// formula forbids.
func TestNestedOpenGuardAbsorption(t *testing.T) {
	q := MustQuery("ng", []string{"x", "y"},
		AndF(
			AndF(AtomF("E", "x", "y"), NotF(AtomF("S", "x"))),
			AtomF("F", "y", "x"),
		))
	if q.branches == nil || len(q.branches) != 1 {
		t.Fatalf("branches = %+v, want one guarded branch", q.branches)
	}
	b := q.branches[0]
	if len(b.atoms) != 2 || len(b.guard) != 1 {
		t.Fatalf("atoms/guard = %d/%d, want 2 absorbed atoms and 1 carried guard", len(b.atoms), len(b.guard))
	}
	// S(a) holds: the pair (a, b) joins E and F but the absorbed guard
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
	want, err := evalGeneric(q, I)
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
// filter of the outer branch, not a guard callback, and must still
// filter.
func TestNestedResidualEqAbsorption(t *testing.T) {
	q := MustQuery("ne", []string{"x", "y"},
		AndF(
			AndF(AtomF("E", "x", "y"), NotF(Eq{L: V("x"), R: V("y")})),
			AtomF("F", "y", "x"),
		))
	if q.branches == nil || len(q.branches) != 1 {
		t.Fatalf("branches = %+v, want one branch", q.branches)
	}
	b := q.branches[0]
	if len(b.eqs) != 1 || !b.eqs[0].neq {
		t.Fatalf("eqs = %+v, want one absorbed inequality", b.eqs)
	}
	if len(b.guard) != 0 || len(b.guardClosed) != 0 {
		t.Fatalf("guards = %d/%d, want the inequality lowered, not guarded", len(b.guard), len(b.guardClosed))
	}
	if b.p == nil {
		t.Fatal("branch should compile to a plan")
	}
	I := fact.FromFacts(
		fact.NewFact("E", "a", "a"), fact.NewFact("F", "a", "a"),
		fact.NewFact("E", "a", "b"), fact.NewFact("F", "b", "a"),
	)
	got, err := q.Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	want, err := evalGeneric(q, I)
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
// plan filter op (ExplainPlan shows "check", never "guard"), the
// branch stays delta-pinnable, and results agree with the generic
// evaluator.
func TestResidualEqLoweredNotGuarded(t *testing.T) {
	q := MustQuery("cyc", []string{"x"},
		ExistsF([]string{"y", "z"},
			AndF(AtomF("E", "x", "y"), AtomF("F", "y", "z"), Eq{L: V("x"), R: V("z")})))
	if q.branches == nil || len(q.branches) != 1 {
		t.Fatalf("branches = %+v, want one branch", q.branches)
	}
	b := q.branches[0]
	if len(b.eqs) != 1 || b.eqs[0].neq {
		t.Fatalf("eqs = %+v, want one positive equality filter", b.eqs)
	}
	if len(b.guard) != 0 || len(b.guardClosed) != 0 || b.p == nil {
		t.Fatalf("guards = %d/%d, p = %v: equality must lower to a filter on a compiled plan", len(b.guard), len(b.guardClosed), b.p)
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
	if strings.Contains(ex, "guard") {
		t.Errorf("ExplainPlan must not lower the residual equality to a guard:\n%s", ex)
	}

	I := fact.FromFacts(
		fact.NewFact("E", "a", "b"), fact.NewFact("F", "b", "a"),
		fact.NewFact("E", "a", "c"), fact.NewFact("F", "c", "d"),
	)
	got, err := q.Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	want, err := evalGeneric(q, I)
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
