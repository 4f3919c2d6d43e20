package datalog

import (
	"math/rand"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/fo"
)

// This file cross-checks the two query engines: a random conjunctive
// query evaluated by the Datalog engine (as a single rule) and by the
// FO evaluator (as an existential conjunction) must agree on random
// instances. The two engines share no evaluation code — the Datalog
// engine joins bottom-up with semi-naive deltas, the FO engine uses
// branch decomposition over the active domain — so agreement is strong
// evidence for both.

// randomCQ builds a conjunctive query over R/2 and S/1 with the given
// head arity. It returns equivalent Datalog and FO forms.
func randomCQ(r *rand.Rand, headArity int) (*Query, *fo.Query, error) {
	varNames := []string{"V0", "V1", "V2", "V3"}
	nAtoms := 1 + r.Intn(3)

	var lits []Literal
	var foAtoms []fo.Formula
	used := map[string]bool{}
	for i := 0; i < nAtoms; i++ {
		if r.Intn(2) == 0 {
			a, b := varNames[r.Intn(4)], varNames[r.Intn(4)]
			lits = append(lits, Pos("r", V(a), V(b)))
			foAtoms = append(foAtoms, fo.AtomF("r", a, b))
			used[a], used[b] = true, true
		} else {
			a := varNames[r.Intn(4)]
			lits = append(lits, Pos("s", V(a)))
			foAtoms = append(foAtoms, fo.AtomF("s", a))
			used[a] = true
		}
	}
	// Head variables drawn from the used ones (safety).
	var pool []string
	for _, v := range varNames {
		if used[v] {
			pool = append(pool, v)
		}
	}
	head := make([]Term, headArity)
	foHead := make([]string, headArity)
	for i := range head {
		v := pool[r.Intn(len(pool))]
		head[i] = V(v)
		foHead[i] = v
	}
	// Existentially close the non-head variables for FO.
	headSet := map[string]bool{}
	for _, h := range foHead {
		headSet[h] = true
	}
	var exVars []string
	for _, v := range pool {
		if !headSet[v] {
			exVars = append(exVars, v)
		}
	}
	body := fo.AndF(foAtoms...)
	if len(exVars) > 0 {
		body = fo.ExistsF(exVars, body)
	}
	foQ, err := fo.NewQuery("cq", foHead, body)
	if err != nil {
		return nil, nil, err
	}
	prog, err := NewProgram(Rule{Head: Atom{Pred: "ans", Terms: head}, Body: lits})
	if err != nil {
		return nil, nil, err
	}
	dlQ, err := NewQuery(prog, "ans")
	if err != nil {
		return nil, nil, err
	}
	return dlQ, foQ, nil
}

func TestDifferentialCQDatalogVsFO(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	vals := []fact.Value{"a", "b", "c"}
	for trial := 0; trial < 300; trial++ {
		dlQ, foQ, err := randomCQ(r, 1+r.Intn(2))
		if err != nil {
			t.Fatal(err)
		}
		I := fact.NewInstance()
		for k := 0; k < r.Intn(8); k++ {
			I.AddFact(fact.NewFact("r", vals[r.Intn(3)], vals[r.Intn(3)]))
		}
		for k := 0; k < r.Intn(4); k++ {
			I.AddFact(fact.NewFact("s", vals[r.Intn(3)]))
		}
		dl, err := dlQ.Eval(I)
		if err != nil {
			t.Fatal(err)
		}
		foRes, err := foQ.Eval(I)
		if err != nil {
			t.Fatal(err)
		}
		if !dl.Equal(foRes) {
			t.Fatalf("trial %d: datalog %v != fo %v\nquery: %s\nfo: %s\non %v",
				trial, dl, foRes, dlQ.Program, foQ, I)
		}
	}
}

func TestDifferentialNegationGuardedVsFO(t *testing.T) {
	// Guarded negation: ans(X) :- s(X), not t(X) vs FO s(x) & !t(x).
	prog := MustParse(`ans(X) :- s(X), not t(X).`)
	dlQ := MustQuery(prog, "ans")
	foQ := fo.MustQuery("q", []string{"x"},
		fo.AndF(fo.AtomF("s", "x"), fo.NotF(fo.AtomF("t", "x"))))
	r := rand.New(rand.NewSource(5))
	vals := []fact.Value{"a", "b", "c", "d"}
	for trial := 0; trial < 100; trial++ {
		I := fact.NewInstance()
		for k := 0; k < r.Intn(6); k++ {
			I.AddFact(fact.NewFact("s", vals[r.Intn(4)]))
		}
		for k := 0; k < r.Intn(6); k++ {
			I.AddFact(fact.NewFact("t", vals[r.Intn(4)]))
		}
		dl, err := dlQ.Eval(I)
		if err != nil {
			t.Fatal(err)
		}
		foRes, err := foQ.Eval(I)
		if err != nil {
			t.Fatal(err)
		}
		if !dl.Equal(foRes) {
			t.Fatalf("trial %d: datalog %v != fo %v on %v", trial, dl, foRes, I)
		}
	}
}

func TestDifferentialSemiNaiveRandomPrograms(t *testing.T) {
	// Random positive recursive programs: semi-naive == naive ==
	// the definitional oracle.
	r := rand.New(rand.NewSource(77))
	vals := []fact.Value{"a", "b", "c", "d"}
	templates := []string{
		`p(X, Y) :- e(X, Y). p(X, Z) :- p(X, Y), p(Y, Z).`,
		`p(X, Y) :- e(X, Y). p(X, Z) :- e(X, Y), p(Y, Z). q(X) :- p(X, X).`,
		`p(X) :- s(X). p(Y) :- p(X), e(X, Y). q(X, Y) :- p(X), p(Y).`,
	}
	for trial := 0; trial < 60; trial++ {
		prog := MustParse(templates[trial%len(templates)])
		I := fact.NewInstance()
		for k := 0; k < 2+r.Intn(8); k++ {
			I.AddFact(fact.NewFact("e", vals[r.Intn(4)], vals[r.Intn(4)]))
		}
		for k := 0; k < r.Intn(3); k++ {
			I.AddFact(fact.NewFact("s", vals[r.Intn(4)]))
		}
		checkAgainstOracle(t, prog, I)
	}
}

func TestDifferentialGenericityRandom(t *testing.T) {
	// Genericity under random permutations of the active domain, for
	// random CQs: Q(h(I)) = h(Q(I)).
	r := rand.New(rand.NewSource(13))
	vals := []fact.Value{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 100; trial++ {
		dlQ, _, err := randomCQ(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		I := fact.NewInstance()
		for k := 0; k < 2+r.Intn(6); k++ {
			I.AddFact(fact.NewFact("r", vals[r.Intn(5)], vals[r.Intn(5)]))
			I.AddFact(fact.NewFact("s", vals[r.Intn(5)]))
		}
		perm := r.Perm(5)
		h := map[fact.Value]fact.Value{}
		for i, v := range vals {
			h[v] = vals[perm[i]]
		}
		qi, err := dlQ.Eval(I)
		if err != nil {
			t.Fatal(err)
		}
		qhi, err := dlQ.Eval(I.ApplyPermutation(h))
		if err != nil {
			t.Fatal(err)
		}
		if !fact.ApplyPermutationRel(qi, h).Equal(qhi) {
			t.Fatalf("trial %d: genericity violated", trial)
		}
	}
}
