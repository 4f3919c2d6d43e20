package plan

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"declnet/internal/fact"
)

func inst(facts ...fact.Fact) *fact.Instance {
	I := fact.NewInstance()
	for _, f := range facts {
		I.AddFact(f)
	}
	return I
}

func f(rel string, args ...fact.Value) fact.Fact { return fact.NewFact(rel, args...) }

// both runs the plan through the compiled executor and the
// definitional oracle and checks they agree, returning the result.
func both(t *testing.T, p *Plan, full, delta *fact.Instance, pin int, args []fact.Value) *fact.Relation {
	t.Helper()
	out := fact.NewRelation(len(p.spec.Head))
	if err := p.Run(full, delta, pin, args, out); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ref, err := evalDefinitional(&p.spec, full, delta, pin, args)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if !out.Equal(ref) {
		t.Fatalf("compiled %v != definitional %v\nplan:\n%s", out, ref, p.Explain(pin))
	}
	return out
}

func TestTwoAtomJoin(t *testing.T) {
	// q(x,z) :- T(x,y), T(y,z)
	p := MustNew(Spec{
		Name: "tc2", NumRegs: 3, RegNames: []string{"x", "y", "z"},
		Head:  []Term{Reg(0), Reg(2)},
		Atoms: []Atom{{Rel: "T", Terms: []Term{Reg(0), Reg(1)}}, {Rel: "T", Terms: []Term{Reg(1), Reg(2)}}},
	})
	I := inst(f("T", "a", "b"), f("T", "b", "c"), f("T", "c", "d"))
	out := both(t, p, I, nil, -1, nil)
	want := fact.NewRelation(2)
	want.Add(fact.Tuple{"a", "c"})
	want.Add(fact.Tuple{"b", "d"})
	if !out.Equal(want) {
		t.Fatalf("got %v want %v", out, want)
	}
}

func TestRepeatedVarAndConst(t *testing.T) {
	// q(x) :- S(x, x, 'k')
	p := MustNew(Spec{
		Name: "rep", NumRegs: 1, RegNames: []string{"x"},
		Head:  []Term{Reg(0)},
		Atoms: []Atom{{Rel: "S", Terms: []Term{Reg(0), Reg(0), Const("k")}}},
	})
	I := inst(f("S", "a", "a", "k"), f("S", "a", "b", "k"), f("S", "c", "c", "x"), f("S", "d", "d", "k"))
	out := both(t, p, I, nil, -1, nil)
	want := fact.NewRelation(1)
	want.Add(fact.Tuple{"a"})
	want.Add(fact.Tuple{"d"})
	if !out.Equal(want) {
		t.Fatalf("got %v want %v", out, want)
	}
}

func TestFiltersEqNeqNotIn(t *testing.T) {
	// q(x,y) :- R(x,y), not T(y), x != y, z = x  (z is head-irrelevant
	// but exercises the equality assignment)
	p := MustNew(Spec{
		Name: "filters", NumRegs: 3, RegNames: []string{"x", "y", "z"},
		Head:  []Term{Reg(0), Reg(1)},
		Atoms: []Atom{{Rel: "R", Terms: []Term{Reg(0), Reg(1)}}},
		Filters: []Filter{
			{Kind: FilterNotIn, Rel: "T", Terms: []Term{Reg(1)}},
			{Kind: FilterNeq, L: Reg(0), R: Reg(1)},
			{Kind: FilterEq, L: Reg(2), R: Reg(0)},
		},
	})
	I := inst(f("R", "a", "b"), f("R", "a", "a"), f("R", "b", "c"), f("T", "c"))
	out := both(t, p, I, nil, -1, nil)
	want := fact.NewRelation(2)
	want.Add(fact.Tuple{"a", "b"})
	if !out.Equal(want) {
		t.Fatalf("got %v want %v", out, want)
	}
}

func TestInputRegisters(t *testing.T) {
	// q(n, x) with n pre-bound :- R(n, x)
	p := MustNew(Spec{
		Name: "inputs", NumRegs: 2, RegNames: []string{"n", "x"},
		Head:   []Term{Reg(0), Reg(1)},
		Atoms:  []Atom{{Rel: "R", Terms: []Term{Reg(0), Reg(1)}}},
		Inputs: []int{0},
	})
	I := inst(f("R", "n1", "a"), f("R", "n1", "b"), f("R", "n2", "c"))
	out := both(t, p, I, nil, -1, []fact.Value{"n1"})
	want := fact.NewRelation(2)
	want.Add(fact.Tuple{"n1", "a"})
	want.Add(fact.Tuple{"n1", "b"})
	if !out.Equal(want) {
		t.Fatalf("got %v want %v", out, want)
	}
}

func TestEmitOnEmpty(t *testing.T) {
	I := inst(f("R", "a"))
	// A plan with no atoms (a Datalog fact rule) emits its head once.
	on := MustNew(Spec{Name: "on", Head: []Term{Const("a"), Const("b")}})
	out := both(t, on, I, nil, -1, nil)
	if out.Len() != 1 {
		t.Fatalf("zero-atom plan emitted %d tuples, want 1", out.Len())
	}
	// ... unless a filter fails.
	off := MustNew(Spec{Name: "off", Filters: []Filter{{Kind: FilterEq, L: Const("a"), R: Const("b")}}})
	out = both(t, off, I, nil, -1, nil)
	if out.Len() != 0 {
		t.Fatalf("zero-atom plan with a failing filter emitted %d tuples, want 0", out.Len())
	}
}

func TestDeltaPinUnionEquation(t *testing.T) {
	// Semi-naive exactness: Eval(full) = Eval(old) ∪ ⋃_i
	// Run(full, delta, pin=i) for a positive conjunction.
	p := MustNew(Spec{
		Name: "delta", NumRegs: 3, RegNames: []string{"x", "y", "z"},
		Head:  []Term{Reg(0), Reg(2)},
		Atoms: []Atom{{Rel: "T", Terms: []Term{Reg(0), Reg(1)}}, {Rel: "T", Terms: []Term{Reg(1), Reg(2)}}},
	})
	old := inst(f("T", "a", "b"), f("T", "b", "c"))
	delta := inst(f("T", "c", "d"), f("T", "d", "a"))
	full := old.Clone()
	full.UnionWith(delta)

	wantFull := fact.NewRelation(2)
	if err := p.Run(full, nil, -1, nil, wantFull); err != nil {
		t.Fatal(err)
	}
	got := fact.NewRelation(2)
	if err := p.Run(old, nil, -1, nil, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.NumAtoms(); i++ {
		if err := p.Run(full, delta, i, nil, got); err != nil {
			t.Fatal(err)
		}
		// Each pinned variant matches the definitional oracle too.
		both(t, p, full, delta, i, nil)
	}
	if !got.Equal(wantFull) {
		t.Fatalf("semi-naive union %v != full evaluation %v", got, wantFull)
	}
}

func TestUnsafeSpecRejected(t *testing.T) {
	// Head register never bound.
	_, err := New(Spec{Name: "unsafeHead", NumRegs: 1, Head: []Term{Reg(0)}})
	if err == nil {
		t.Fatal("unsafe head accepted")
	}
	// Neq over never-bound registers.
	_, err = New(Spec{Name: "unsafeNeq", NumRegs: 2,
		Filters: []Filter{{Kind: FilterNeq, L: Reg(0), R: Reg(1)}}})
	if err == nil {
		t.Fatal("unsafe filter accepted")
	}
	// Register index out of range.
	_, err = New(Spec{Name: "badReg", NumRegs: 1, Atoms: []Atom{{Rel: "R", Terms: []Term{Reg(3)}}}})
	if err == nil {
		t.Fatal("out-of-range register accepted")
	}
}

func TestMissingOrMismatchedRelation(t *testing.T) {
	p := MustNew(Spec{
		Name: "missing", NumRegs: 1,
		Head:  []Term{Reg(0)},
		Atoms: []Atom{{Rel: "Nope", Terms: []Term{Reg(0)}}},
	})
	// Absent relation: no tuples, no error.
	out := both(t, p, inst(f("Other", "a")), nil, -1, nil)
	if out.Len() != 0 {
		t.Fatalf("absent relation produced %v", out)
	}
	// Arity mismatch: same.
	out = both(t, p, inst(f("Nope", "a", "b")), nil, -1, nil)
	if out.Len() != 0 {
		t.Fatalf("arity-mismatched relation produced %v", out)
	}
}

func TestExplainRendering(t *testing.T) {
	p := MustNew(Spec{
		Name: "exp", NumRegs: 3, RegNames: []string{"x", "y", "z"},
		Head:  []Term{Reg(0), Reg(2)},
		Atoms: []Atom{{Rel: "S", Terms: []Term{Reg(0), Reg(1)}}, {Rel: "T", Terms: []Term{Reg(1), Reg(2)}}},
		Filters: []Filter{
			{Kind: FilterNotIn, Rel: "U", Terms: []Term{Reg(2)}},
		},
	})
	got := p.ExplainAll()
	for _, want := range []string{"scan", "probe", "check not U(z)", "emit (x,z)", "delta pin S(x,y)", "delta pin T(y,z)"} {
		if !strings.Contains(got, want) {
			t.Fatalf("explain output missing %q:\n%s", want, got)
		}
	}
}

// TestExplainDoesNotBindSchedule: rendering a plan must not populate
// the schedule cache — the first execution still compiles with the
// instance's cardinalities.
func TestExplainDoesNotBindSchedule(t *testing.T) {
	p := MustNew(Spec{
		Name: "peek", NumRegs: 3, RegNames: []string{"x", "y", "z"},
		Head:  []Term{Reg(0), Reg(2)},
		Atoms: []Atom{{Rel: "Big", Terms: []Term{Reg(0), Reg(1)}}, {Rel: "Small", Terms: []Term{Reg(1), Reg(2)}}},
	})
	_ = p.ExplainAll()
	for i := range p.scheds {
		if p.scheds[i].s.Load() != nil {
			t.Fatalf("explain populated schedule slot %d", i)
		}
	}
	// First Run binds with cardinalities: Small (1 tuple) is scanned,
	// Big (8 tuples) probed — the index tie-break alone would scan Big.
	I := inst(f("Small", "m", "z"))
	for i := 0; i < 8; i++ {
		I.AddFact(f("Big", fact.Value(fmt.Sprintf("b%d", i)), "m"))
	}
	out := fact.NewRelation(2)
	if err := p.Run(I, nil, -1, nil, out); err != nil {
		t.Fatal(err)
	}
	if got := p.Explain(-1); !strings.Contains(got, "scan Small(y,z)") {
		t.Fatalf("cardinality tie-break lost (Small not scanned first):\n%s", got)
	}
}

// TestRandomizedDifferential cross-checks the compiled executor
// against the definitional oracle on random specs and instances,
// including pinned delta variants.
func TestRandomizedDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	vals := []fact.Value{"a", "b", "c", "d"}
	rels := []string{"R", "S"}
	for trial := 0; trial < 400; trial++ {
		nRegs := 1 + rng.IntN(4)
		nAtoms := 1 + rng.IntN(3)
		spec := Spec{Name: fmt.Sprintf("rand%d", trial), NumRegs: nRegs}
		term := func() Term {
			if rng.IntN(5) == 0 {
				return Const(vals[rng.IntN(len(vals))])
			}
			return Reg(rng.IntN(nRegs))
		}
		for i := 0; i < nAtoms; i++ {
			ar := 1 + rng.IntN(2)
			a := Atom{Rel: rels[rng.IntN(2)] + fmt.Sprint(ar)}
			for j := 0; j < ar; j++ {
				a.Terms = append(a.Terms, term())
			}
			spec.Atoms = append(spec.Atoms, a)
		}
		bound := map[int]bool{}
		for _, a := range spec.Atoms {
			for _, tm := range a.Terms {
				if tm.IsReg() {
					bound[tm.Reg] = true
				}
			}
		}
		var boundRegs []int
		for r := 0; r < nRegs; r++ {
			if bound[r] {
				boundRegs = append(boundRegs, r)
			}
		}
		if len(boundRegs) == 0 {
			continue
		}
		pickBound := func() Term { return Reg(boundRegs[rng.IntN(len(boundRegs))]) }
		for i := 0; i < rng.IntN(3); i++ {
			switch rng.IntN(3) {
			case 0:
				spec.Filters = append(spec.Filters, Filter{Kind: FilterNeq, L: pickBound(), R: pickBound()})
			case 1:
				spec.Filters = append(spec.Filters, Filter{Kind: FilterEq, L: pickBound(), R: pickBound()})
			case 2:
				spec.Filters = append(spec.Filters, Filter{Kind: FilterNotIn, Rel: "S1", Terms: []Term{pickBound()}})
			}
		}
		for i := 0; i < 1+rng.IntN(2); i++ {
			spec.Head = append(spec.Head, pickBound())
		}
		p, err := New(spec)
		if err != nil {
			t.Fatalf("trial %d: %v\nspec: %+v", trial, err, spec)
		}
		full := fact.NewInstance()
		delta := fact.NewInstance()
		for k := 0; k < 3+rng.IntN(10); k++ {
			rel := rels[rng.IntN(2)]
			ar := 1 + rng.IntN(2)
			args := make([]fact.Value, ar)
			for j := range args {
				args[j] = vals[rng.IntN(len(vals))]
			}
			ft := fact.Fact{Rel: rel + fmt.Sprint(ar), Args: args}
			full.AddFact(ft)
			if rng.IntN(3) == 0 {
				delta.AddFact(ft)
			}
		}
		for pin := -1; pin < len(spec.Atoms); pin++ {
			d := delta
			if pin < 0 {
				d = nil
			}
			both(t, p, full, d, pin, nil)
		}
	}
}
