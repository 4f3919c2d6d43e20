package fact_test

import (
	"fmt"
	"testing"

	"declnet/internal/datalog"
	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/plan"
)

// withBatchMode runs fn with the plan layer pinned to mode.
func withBatchMode(t *testing.T, mode string, fn func()) {
	t.Helper()
	prev, err := plan.SetBatchMode(mode)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _, _ = plan.SetBatchMode(prev) }()
	fn()
}

// eachTuples lists r's tuples in Each order.
func eachTuples(r *fact.Relation) []fact.Tuple {
	var out []fact.Tuple
	r.Each(func(t fact.Tuple) bool { out = append(out, t); return true })
	return out
}

// TestBatchResultsStayKeyOnly: results of batch-pipeline evaluation —
// an FO join and a recursive Datalog program — are stored as packed
// keys only, and Len and a cross-dictionary Equal leave them so. The
// first Each decodes every row, and the tuples it yields equal, in
// the same order, those of a tuple-pipeline evaluation of the same
// query.
func TestBatchResultsStayKeyOnly(t *testing.T) {
	in := fact.NewInstance()
	for i := 0; i < 60; i++ {
		in.AddFact(fact.NewFact("S", fact.Value(fmt.Sprintf("v%d", i)), fact.Value(fmt.Sprintf("v%d", (i*7+1)%60))))
		in.AddFact(fact.NewFact("S", fact.Value(fmt.Sprintf("v%d", i)), fact.Value(fmt.Sprintf("v%d", (i+3)%60))))
	}
	pairs := fo.MustQuery("pairs", []string{"x", "y", "z"}, fo.AndF(fo.AtomF("S", "x", "y"), fo.AtomF("S", "y", "z")))
	prog, err := datalog.Parse("T(X, Y) :- S(X, Y).\nT(X, Z) :- T(X, Y), S(Y, Z).")
	if err != nil {
		t.Fatal(err)
	}
	tc := datalog.MustQuery(prog, "T")
	for _, q := range []struct {
		name string
		eval func(*fact.Instance) (*fact.Relation, error)
	}{{"fo", pairs.Eval}, {"datalog", tc.Eval}} {
		t.Run(q.name, func(t *testing.T) {
			var batch, tuple *fact.Relation
			withBatchMode(t, "always", func() { batch, err = q.eval(in) })
			if err != nil {
				t.Fatal(err)
			}
			withBatchMode(t, "off", func() { tuple, err = q.eval(in) })
			if err != nil {
				t.Fatal(err)
			}
			if batch.Len() == 0 {
				t.Fatal("empty result")
			}
			other := tuple.Rekey(fact.NewDict())
			if !batch.Equal(other) || !other.Equal(batch) {
				t.Fatal("batch and tuple results differ")
			}
			if n := fact.DecodedRows(batch); n != 0 {
				t.Fatalf("batch result decoded %d of %d rows before any tuple read", n, batch.Len())
			}
			got, want := eachTuples(batch), eachTuples(tuple)
			if fact.DecodedRows(batch) != batch.Len() {
				t.Fatalf("Each decoded %d of %d rows", fact.DecodedRows(batch), batch.Len())
			}
			if len(got) != len(want) {
				t.Fatalf("Each yields %d tuples, tuple pipeline %d", len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("row %d: batch %v, tuple pipeline %v", i, got[i], want[i])
				}
			}
		})
	}
}
