package plan

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"declnet/internal/fact"
)

// forceBatchMode pins the pipeline mode for one test and restores it
// afterwards. Tests in this package run sequentially, so the global
// knob is safe to swap.
func forceBatchMode(t *testing.T, mode string) {
	t.Helper()
	prev, err := SetBatchMode(mode)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _, _ = SetBatchMode(prev) })
}

func TestBatchModeKnobs(t *testing.T) {
	forceBatchMode(t, "auto")
	if BatchMode() != "auto" {
		t.Fatalf("mode %q, want auto", BatchMode())
	}
	if _, err := SetBatchMode("columnar-ish"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

// TestBatchDifferentialThreeWay drives random specs — atoms, filters,
// delta pins — through the batch pipeline, the tuple executor
// and the definitional oracle, and requires all three to emit
// identical tuple sets.
func TestBatchDifferentialThreeWay(t *testing.T) {
	rng := rand.New(rand.NewPCG(99, 17))
	vals := []fact.Value{"a", "b", "c", "d"}
	rels := []string{"R", "S"}
	for trial := 0; trial < 400; trial++ {
		nRegs := 1 + rng.IntN(4)
		nAtoms := 1 + rng.IntN(3)
		spec := Spec{Name: fmt.Sprintf("batchrand%d", trial), NumRegs: nRegs}
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
			run := func(mode string) *fact.Relation {
				prev, _ := SetBatchMode(mode)
				defer SetBatchMode(prev)
				out := fact.NewRelation(len(spec.Head))
				if err := p.Run(full, d, pin, nil, out); err != nil {
					t.Fatalf("trial %d pin %d mode %s: Run: %v", trial, pin, mode, err)
				}
				return out
			}
			batch := run("always")
			tuple := run("off")
			ref, err := evalDefinitional(&spec, full, d, pin, nil)
			if err != nil {
				t.Fatalf("trial %d pin %d: oracle: %v", trial, pin, err)
			}
			if !batch.Equal(ref) || !tuple.Equal(ref) {
				t.Fatalf("trial %d pin %d: batch %v, tuple %v, definitional %v\nplan:\n%s",
					trial, pin, batch, tuple, ref, p.Explain(pin))
			}
		}
	}
}

// TestBatchFallbackOnRowCap: a cross-product schedule whose batch
// would exceed the materialization cap silently falls back to the
// tuple path and still emits the full result.
func TestBatchFallbackOnRowCap(t *testing.T) {
	forceBatchMode(t, "always")
	prev := batchRowCap
	batchRowCap = 50
	defer func() { batchRowCap = prev }()

	p := MustNew(Spec{
		Name: "cross", NumRegs: 2,
		Head:  []Term{Reg(0), Reg(1)},
		Atoms: []Atom{{Rel: "A", Terms: []Term{Reg(0)}}, {Rel: "B", Terms: []Term{Reg(1)}}},
	})
	I := fact.NewInstance()
	for i := 0; i < 20; i++ {
		I.AddFact(f("A", fact.Value(fmt.Sprintf("a%d", i))))
		I.AddFact(f("B", fact.Value(fmt.Sprintf("b%d", i))))
	}
	out := fact.NewRelation(2)
	if err := p.Run(I, nil, -1, nil, out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 400 {
		t.Fatalf("cross product lost rows on fallback: %d, want 400", out.Len())
	}
}

// TestBatchInputRegisters: pre-bound input registers flow into the
// batch as broadcast constants.
func TestBatchInputRegisters(t *testing.T) {
	forceBatchMode(t, "always")
	p := MustNew(Spec{
		Name: "inputs", NumRegs: 2,
		Head:   []Term{Reg(1)},
		Atoms:  []Atom{{Rel: "E", Terms: []Term{Reg(0), Reg(1)}}},
		Inputs: []int{0},
	})
	I := inst(f("E", "a", "b"), f("E", "a", "c"), f("E", "x", "y"))
	out := fact.NewRelation(1)
	if err := p.Run(I, nil, -1, []fact.Value{"a"}, out); err != nil {
		t.Fatal(err)
	}
	want := fact.NewRelation(1)
	want.Add(fact.Tuple{"b"})
	want.Add(fact.Tuple{"c"})
	if !out.Equal(want) {
		t.Fatalf("got %v want %v", out, want)
	}
	// An input value never interned before can still reach the head.
	p2 := MustNew(Spec{
		Name: "passthrough", NumRegs: 2,
		Head:   []Term{Reg(0), Reg(1)},
		Atoms:  []Atom{{Rel: "U", Terms: []Term{Reg(1)}}},
		Inputs: []int{0},
	})
	I2 := inst(f("U", "u"))
	out2 := fact.NewRelation(2)
	if err := p2.Run(I2, nil, -1, []fact.Value{"batch-fresh-input-arg"}, out2); err != nil {
		t.Fatal(err)
	}
	if !out2.Contains(fact.Tuple{"batch-fresh-input-arg", "u"}) {
		t.Fatalf("fresh input value lost: %v", out2)
	}
}

// TestBatchRemoveReAddDifferential interleaves Add/Remove/Add on the
// instance relations between executions: Remove invalidates the
// columnar view (watermarked indexes, sorted runs), the next batch
// execution rebuilds it, and subsequent Adds extend it behind the
// watermarks. Batch and tuple paths must match the definitional
// oracle at every step, for every delta pin.
func TestBatchRemoveReAddDifferential(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 23))
	p := MustNew(Spec{
		Name: "rra", NumRegs: 3,
		Head:  []Term{Reg(0), Reg(2)},
		Atoms: []Atom{{Rel: "E", Terms: []Term{Reg(0), Reg(1)}}, {Rel: "E", Terms: []Term{Reg(1), Reg(2)}}},
	})
	vals := make([]fact.Value, 18)
	for i := range vals {
		vals[i] = fact.Value(fmt.Sprintf("n%d", i))
	}
	randFact := func() fact.Fact {
		return f("E", vals[rng.IntN(len(vals))], vals[rng.IntN(len(vals))])
	}
	full := fact.NewInstance()
	delta := fact.NewInstance()
	for i := 0; i < 60; i++ {
		full.AddFact(randFact())
	}
	check := func(step string) {
		t.Helper()
		for pin := -1; pin < p.NumAtoms(); pin++ {
			d := delta
			if pin < 0 {
				d = nil
			}
			run := func(mode string) *fact.Relation {
				prev, _ := SetBatchMode(mode)
				defer SetBatchMode(prev)
				out := fact.NewRelation(2)
				if err := p.Run(full, d, pin, nil, out); err != nil {
					t.Fatalf("%s pin %d mode %s: %v", step, pin, mode, err)
				}
				return out
			}
			batch := run("always")
			tuple := run("off")
			ref, err := evalDefinitional(&p.spec, full, d, pin, nil)
			if err != nil {
				t.Fatalf("%s pin %d: oracle: %v", step, pin, err)
			}
			if !batch.Equal(ref) || !tuple.Equal(ref) {
				t.Fatalf("%s pin %d: batch %d tuples, tuple %d, definitional %d",
					step, pin, batch.Len(), tuple.Len(), ref.Len())
			}
		}
	}
	check("initial")
	for cycle := 0; cycle < 6; cycle++ {
		// Remove a random slice of stored facts (invalidating the
		// columnar view mid-lifecycle), re-add some of them plus fresh
		// ones, and refresh the delta with a random subset.
		e := full.Relation("E")
		var stored []fact.Tuple
		e.Each(func(tu fact.Tuple) bool {
			stored = append(stored, tu)
			return true
		})
		removed := 0
		for _, tu := range stored {
			if rng.IntN(4) == 0 {
				full.RemoveFact(fact.Fact{Rel: "E", Args: tu})
				removed++
			}
		}
		check(fmt.Sprintf("cycle %d after remove (%d gone)", cycle, removed))
		for i, tu := range stored {
			if i%5 == 0 {
				full.AddFact(fact.Fact{Rel: "E", Args: tu})
			}
		}
		for i := 0; i < 10; i++ {
			full.AddFact(randFact())
		}
		delta = fact.NewInstance()
		e = full.Relation("E")
		e.Each(func(tu fact.Tuple) bool {
			if rng.IntN(3) == 0 {
				delta.AddFact(fact.Fact{Rel: "E", Args: tu})
			}
			return true
		})
		check(fmt.Sprintf("cycle %d after re-add", cycle))
	}
}

// TestExplainPipelineLine: the explain output names the pipeline the
// executor will pick, in every mode.
func TestExplainPipelineLine(t *testing.T) {
	p := MustNew(Spec{
		Name: "exp", NumRegs: 2,
		Head:  []Term{Reg(0)},
		Atoms: []Atom{{Rel: "E", Terms: []Term{Reg(0), Reg(1)}}},
	})
	forceBatchMode(t, "auto")
	if got := p.Explain(-1); !strings.Contains(got, "pipeline batch>=") {
		t.Fatalf("auto explain missing pipeline line:\n%s", got)
	}
	forceBatchMode(t, "always")
	if got := p.Explain(-1); !strings.Contains(got, "pipeline batch (columnar, mode always)") {
		t.Fatalf("always explain missing pipeline line:\n%s", got)
	}
	forceBatchMode(t, "off")
	if got := p.Explain(-1); !strings.Contains(got, "pipeline tuple (batch mode off)") {
		t.Fatalf("off explain missing pipeline line:\n%s", got)
	}
	// Zero-atom specs are tuple-only, with the reason.
	p0 := MustNew(Spec{Name: "factrule", NumRegs: 0, Head: []Term{Const("k")}})
	if got := p0.Explain(-1); !strings.Contains(got, "pipeline tuple (no atoms)") {
		t.Fatalf("zero-atom explain missing reason:\n%s", got)
	}
}
