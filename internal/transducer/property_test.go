package transducer

import (
	"math/rand"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/query"
)

// fixedRelQuery returns a query producing a fixed unary relation,
// ignoring its input — a handle for driving the update formula with
// arbitrary insert/delete sets.
func fixedRelQuery(vals []fact.Value) query.Query {
	return query.NewFunc("fixed", 1, nil, true,
		func(*fact.Instance) (*fact.Relation, error) {
			r := fact.NewRelation(1)
			for _, v := range vals {
				r.Add(fact.Tuple{v})
			}
			return r, nil
		})
}

// applyUpdateFormula computes the §2.1 memory update directly from its
// set definition, as the specification to test Step against.
func applyUpdateFormula(old, ins, del map[fact.Value]bool) map[fact.Value]bool {
	out := map[fact.Value]bool{}
	for v := range ins {
		if !del[v] {
			out[v] = true // Qins \ Qdel
		} else if old[v] {
			out[v] = true // Qins ∩ Qdel ∩ I(R)
		}
	}
	for v := range old {
		if !ins[v] && !del[v] {
			out[v] = true // I(R) \ (Qins ∪ Qdel)
		}
	}
	return out
}

func TestPropUpdateFormulaMatchesSpec(t *testing.T) {
	// For random old/ins/del sets, Step must realize the paper's
	// update formula exactly.
	r := rand.New(rand.NewSource(321))
	universe := []fact.Value{"a", "b", "c", "d", "e"}
	pick := func() (map[fact.Value]bool, []fact.Value) {
		m := map[fact.Value]bool{}
		var s []fact.Value
		for _, v := range universe {
			if r.Intn(2) == 0 {
				m[v] = true
				s = append(s, v)
			}
		}
		return m, s
	}
	for trial := 0; trial < 200; trial++ {
		oldSet, oldVals := pick()
		insSet, insVals := pick()
		delSet, delVals := pick()

		tr := NewBuilder("prop", fact.Schema{}).
			Mem("R", 1).
			Ins("R", fixedRelQuery(insVals)).
			Del("R", fixedRelQuery(delVals)).
			Out(0, nil).
			MustBuild()
		state := fact.NewInstance()
		for _, v := range oldVals {
			state.AddFact(fact.NewFact("R", v))
		}
		eff, err := tr.Step(state, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := applyUpdateFormula(oldSet, insSet, delSet)
		got := eff.State.RelationOr("R", 1)
		if got.Len() != len(want) {
			t.Fatalf("trial %d: |R| = %d, want %d (old=%v ins=%v del=%v)",
				trial, got.Len(), len(want), oldVals, insVals, delVals)
		}
		for v := range want {
			if !got.Contains(fact.Tuple{v}) {
				t.Fatalf("trial %d: missing %s", trial, v)
			}
		}
	}
}

func TestPropInflationaryStateGrows(t *testing.T) {
	// An inflationary transducer's memory only ever grows along a run
	// of random steps.
	r := rand.New(rand.NewSource(9))
	tr := NewBuilder("infl", fact.Schema{"S": 1}).
		Msg("M", 1).
		Mem("R", 1).
		Ins("R", fo.MustQuery("insR", []string{"x"},
			fo.OrF(fo.AtomF("M", "x"), fo.AtomF("R", "x"), fo.AtomF("S", "x")))).
		Out(0, nil).
		MustBuild()
	if !tr.Inflationary() {
		t.Fatal("misclassified")
	}
	vals := []fact.Value{"a", "b", "c", "d"}
	state := fact.FromFacts(fact.NewFact("S", "a"))
	for step := 0; step < 60; step++ {
		var rcv *fact.Instance
		if r.Intn(2) == 0 {
			rcv = fact.FromFacts(fact.NewFact("M", vals[r.Intn(4)]))
		}
		eff, err := tr.Step(state, rcv)
		if err != nil {
			t.Fatal(err)
		}
		oldR := state.RelationOr("R", 1)
		newR := eff.State.RelationOr("R", 1)
		if !oldR.SubsetOf(newR) {
			t.Fatalf("step %d: memory shrank: %v -> %v", step, oldR, newR)
		}
		state = eff.State
	}
}

func TestPropStepGenericity(t *testing.T) {
	// Transducer transitions are generic: permuting dom commutes with
	// Step (for transducers whose queries are generic, which all FO
	// ones are).
	tr := NewBuilder("gen", fact.Schema{"S": 2}).
		Msg("M", 2).
		Mem("R", 2).
		Snd("M", fo.MustQuery("sndM", []string{"x", "y"}, fo.AtomF("S", "x", "y"))).
		Ins("R", fo.MustQuery("insR", []string{"x", "y"},
			fo.OrF(fo.AtomF("M", "x", "y"), fo.AtomF("R", "x", "y")))).
		Out(2, fo.MustQuery("out", []string{"x", "y"}, fo.AtomF("R", "x", "y"))).
		MustBuild()

	state := fact.FromFacts(fact.NewFact("S", "a", "b"), fact.NewFact("R", "b", "c"))
	rcv := fact.FromFacts(fact.NewFact("M", "c", "a"))
	h := map[fact.Value]fact.Value{"a": "b", "b": "c", "c": "a"}

	eff1, err := tr.Step(state, rcv)
	if err != nil {
		t.Fatal(err)
	}
	eff2, err := tr.Step(state.ApplyPermutation(h), rcv.ApplyPermutation(h))
	if err != nil {
		t.Fatal(err)
	}
	if !eff1.State.ApplyPermutation(h).Equal(eff2.State) {
		t.Error("state genericity violated")
	}
	if !eff1.Snd.ApplyPermutation(h).Equal(eff2.Snd) {
		t.Error("send genericity violated")
	}
	if !fact.ApplyPermutationRel(eff1.Out, h).Equal(eff2.Out) {
		t.Error("output genericity violated")
	}
}
