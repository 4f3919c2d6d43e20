package dedalus

import (
	"strings"
	"testing"

	"declnet/internal/datalog"
	"declnet/internal/fact"
	"declnet/internal/network"
	"declnet/internal/tm"
)

// TestRunPerRunDict: a run over temporal input interned in a per-run
// dictionary yields slices owned by that dictionary and value-identical
// to the same run over the process default — the evaluator adopts the
// input's ID space instead of panicking on cross-dict unions.
func TestRunPerRunDict(t *testing.T) {
	p := MustNew(
		I(Atom("p", "X"), datalog.Pos("p", datalog.V("X"))),
		D(Atom("q", "X"), datalog.Pos("p", datalog.V("X"))),
	)
	in := TemporalInput{
		0: fact.FromFacts(ff("p", "a")),
		2: fact.FromFacts(ff("p", "b")),
	}
	want, err := p.Run(in, Options{})
	if err != nil {
		t.Fatal(err)
	}

	d := fact.NewDict()
	perIn := TemporalInput{}
	for ts, h := range in {
		perIn[ts] = h.Rekey(d)
	}
	got, err := p.Run(perIn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.ConvergedAt != want.ConvergedAt || len(got.Slices) != len(want.Slices) {
		t.Fatalf("trajectory diverged: converged %d/%d, %d/%d slices",
			got.ConvergedAt, want.ConvergedAt, len(got.Slices), len(want.Slices))
	}
	for i := range want.Slices {
		if got.Slices[i].Dict() != d {
			t.Fatalf("slice %d left the per-run dictionary", i)
		}
		if !got.Slices[i].Equal(want.Slices[i]) {
			t.Fatalf("slice %d: per-run dict %v != default %v", i, got.Slices[i], want.Slices[i])
		}
	}
}

// TestDistRunPerRunDict: a distributed run over a partition interned
// in a per-run dictionary runs its flood and every node's EDB in that
// dictionary, and matches the same run over the process default — same
// convergence step, delivery count and final slices.
func TestDistRunPerRunDict(t *testing.T) {
	prog, err := CompileTM(tm.EvenLength())
	if err != nil {
		t.Fatal(err)
	}
	I, err := tm.EncodeWord([]string{"a", "b", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*network.Network{network.Single(), network.Ring(3)} {
		part := partitionFacts(I, net)
		want, err := DistRun(prog, net, part, DistOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		d := fact.NewDict()
		perRun := map[fact.Value]*fact.Instance{}
		for v, frag := range part {
			perRun[v] = frag.Rekey(d)
		}
		got, err := DistRun(prog, net, perRun, DistOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%v: per-run dict run: %v", net, err)
		}
		if got.ConvergedAt != want.ConvergedAt || got.Messages != want.Messages {
			t.Fatalf("%v: per-run dict converged at %d after %d messages, default at %d after %d",
				net, got.ConvergedAt, got.Messages, want.ConvergedAt, want.Messages)
		}
		if len(got.Finals) != len(want.Finals) {
			t.Fatalf("%v: %d finals, want %d", net, len(got.Finals), len(want.Finals))
		}
		for v, w := range want.Finals {
			g := got.Finals[v]
			if g == nil || g.Dict() != d {
				t.Fatalf("%v: node %s's final slice left the per-run dictionary", net, v)
			}
			if !g.Equal(w) {
				t.Fatalf("%v: node %s: per-run dict %v != default %v", net, v, g, w)
			}
		}
	}
}

// TestDistRunRejectsMixedDicts: fragments interned in two different
// dictionaries are an error naming the fix, not a panic.
func TestDistRunRejectsMixedDicts(t *testing.T) {
	prog, err := CompileTM(tm.EvenLength())
	if err != nil {
		t.Fatal(err)
	}
	I, err := tm.EncodeWord([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	net := network.Line(2)
	part := partitionFacts(I, net)
	for v, frag := range part {
		part[v] = frag.Rekey(fact.NewDict())
	}
	if _, err := DistRun(prog, net, part, DistOptions{Seed: 1}); err == nil || !strings.Contains(err.Error(), "Rekey") {
		t.Fatalf("mixed-dictionary partition: err = %v, want an error naming Rekey", err)
	}
}

// TestRunRejectsMixedDicts: temporal input interned in two different
// dictionaries is an error naming the fix, not a panic.
func TestRunRejectsMixedDicts(t *testing.T) {
	p := MustNew(
		I(Atom("p", "X"), datalog.Pos("p", datalog.V("X"))),
		D(Atom("q", "X"), datalog.Pos("p", datalog.V("X"))),
	)
	in := TemporalInput{
		0: fact.FromFacts(ff("p", "a")),
		2: fact.FromFacts(ff("p", "b")).Rekey(fact.NewDict()),
	}
	if _, err := p.Run(in, Options{}); err == nil || !strings.Contains(err.Error(), "Rekey") {
		t.Fatalf("mixed-dictionary temporal input: err = %v, want an error naming Rekey", err)
	}
}
