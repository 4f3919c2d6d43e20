package sa

// The machine-checked soundness contract of the static analyzer: a
// program the analyzer PROVES monotone must never be refuted by the
// semantic sweeps. The harness crosses the static verdict against
//
//   - calm.CheckMonotone on a growing chain of sub-instances, and
//   - calm.CheckChannelRobustness under lossy/duplicating channels,
//
// over (a) every construction of the paper's transducer zoo and
// (b) every parseable query of the committed fo and datalog fuzz
// corpora, wrapped into single-query transducers. The reverse
// direction is NOT required (the analyzer is incomplete by design);
// the completeness gap — semantically unrefuted but statically
// unproved programs — is logged as a tracked count instead.
//
// The harness also pins the two headline widenings end to end: an
// assignment-free while query and a datalog program with absorbed
// negation, both rejected by the pre-analyzer boolean check, are now
// statically accepted AND actually stream through
// dist.MonotoneStreaming to the right answer.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"declnet/internal/calm"
	"declnet/internal/datalog"
	"declnet/internal/dist"
	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/network"
	"declnet/internal/query"
	"declnet/internal/transducer"
	"declnet/internal/while"
)

func ff(rel string, args ...fact.Value) fact.Fact { return fact.NewFact(rel, args...) }

// soundnessZoo mirrors the dist differential zoo: every construction
// of the paper with a sample input.
func soundnessZoo(t testing.TB) []struct {
	name string
	tr   *transducer.Transducer
	I    *fact.Instance
} {
	t.Helper()
	must := func(tr *transducer.Transducer, err error) *transducer.Transducer {
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	edges := fact.FromFacts(ff("S", "a", "b"), ff("S", "b", "c"), ff("S", "c", "d"))
	eqPairs := fact.FromFacts(ff("S", "a", "a"), ff("S", "a", "b"), ff("S", "c", "c"))
	set := fact.FromFacts(ff("S", "x1"), ff("S", "x2"), ff("S", "x3"))
	ab := fact.FromFacts(ff("A", "a1"), ff("A", "a2"), ff("B", "b1"))

	tcq := datalog.MustQuery(datalog.MustParse(`
		tc(X, Y) :- S(X, Y).
		tc(X, Z) :- S(X, Y), tc(Y, Z).
	`), "tc")
	emptiness := query.NewFunc("emptiness", 0, []string{"S"}, false,
		func(I *fact.Instance) (*fact.Relation, error) {
			out := fact.NewRelation(0)
			if I.RelationOr("S", 1).Empty() {
				out.Add(fact.Tuple{})
			}
			return out, nil
		})
	floodOut := fo.MustQuery("pairs", []string{"x", "y"}, fo.AtomF("S", "x", "y"))
	whileProg := while.MustParse(`
T(x, y) := E(x, y);
D(x, y) := E(x, y);
while exists x, y D(x, y) {
    N(x, y) := T(x, y) | exists z (T(x, z) & T(z, y));
    D(x, y) := N(x, y) & !T(x, y);
    T(x, y) := N(x, y);
}
output T/2
`)
	whileIn := fact.FromFacts(ff("E", "a", "b"), ff("E", "b", "c"))

	return []struct {
		name string
		tr   *transducer.Transducer
		I    *fact.Instance
	}{
		{"transitiveClosure", dist.TransitiveClosure(), edges},
		{"equalitySelection", dist.EqualitySelection(), eqPairs},
		{"firstElement", dist.FirstElement(), set},
		{"relayOnly", dist.RelayOnly(), set},
		{"flood", must(dist.Flood(fact.Schema{"S": 2}, floodOut, 2)), edges},
		{"multicast", must(dist.Multicast(fact.Schema{"S": 2}, floodOut, 2)), edges},
		{"collectThenCompute", must(dist.CollectThenCompute(fact.Schema{"S": 1}, emptiness)), set},
		{"monotoneStreaming", must(dist.MonotoneStreaming(fact.Schema{"S": 2}, tcq)), edges},
		{"datalogStreaming", must(dist.DatalogStreaming(datalog.MustParse(`
			tc(X, Y) :- S(X, Y).
			tc(X, Z) :- S(X, Y), tc(Y, Z).
		`), "tc")), edges},
		{"whileTransducer", must(dist.WhileTransducer(whileProg, fact.Schema{"E": 2})), whileIn},
		{"emptiness", dist.Emptiness(), set},
		{"eitherNonempty", dist.EitherNonempty(), ab},
		{"pingIdentity", dist.PingIdentity(), set},
		{"evenCardinality", must(dist.EvenCardinality()), set},
	}
}

// TestStaticSoundnessZoo: over all 14 constructions, a static
// monotonicity proof implies no violation on the growing chain and
// robustness under adversarial channels. The completeness gap is
// logged, never asserted.
func TestStaticSoundnessZoo(t *testing.T) {
	proved, gap := 0, 0
	for _, e := range soundnessZoo(t) {
		rep := Analyze(e.tr)
		viol, err := calm.CheckMonotone(e.tr, calm.GrowingChain(e.I))
		if err != nil {
			t.Fatalf("%s: semantic sweep: %v", e.name, err)
		}
		if rep.Monotone.OK {
			proved++
			if viol != nil {
				t.Errorf("%s: SOUNDNESS VIOLATION: statically proved monotone but Q(%v)=%v ⊄ Q(%v)=%v",
					e.name, viol.I, viol.QI, viol.J, viol.QJ)
			}
			rob, err := calm.CheckChannelRobustness(network.Line(2), e.tr, e.I,
				[]string{"lossy:25", "dup:25"}, calm.RobustOptions{Seeds: 1})
			if err != nil {
				t.Fatalf("%s: robustness sweep: %v", e.name, err)
			}
			if !rob.Robust() {
				t.Errorf("%s: SOUNDNESS VIOLATION: statically proved monotone but divergent under %v",
					e.name, rob.Divergent())
			}
		} else if viol == nil {
			gap++
		}
	}
	if proved < 3 {
		t.Errorf("only %d zoo constructions statically proved monotone — the sweep is near-vacuous", proved)
	}
	t.Logf("zoo: %d statically proved, completeness gap %d (semantically unrefuted, statically unproved)", proved, gap)
}

// corpusInputs decodes the `go test fuzz v1` corpus files of another
// package's fuzz target into their string inputs.
func corpusInputs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no committed corpus under %s", dir)
	}
	var out []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") || !strings.HasSuffix(line, ")") {
				continue
			}
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				t.Fatalf("%s: undecodable corpus line %q: %v", f, line, err)
			}
			out = append(out, s)
		}
	}
	return out
}

// foSig collects relation arities (first occurrence wins) and
// constants of an fo formula, for sample-instance generation.
func foSig(f fo.Formula, arities map[string]int, consts map[fact.Value]bool) {
	switch g := f.(type) {
	case fo.Atom:
		if _, ok := arities[g.Rel]; !ok {
			arities[g.Rel] = len(g.Terms)
		}
		for _, tm := range g.Terms {
			if c, ok := tm.(fo.Const); ok {
				consts[fact.Value(c)] = true
			}
		}
	case fo.Eq:
		for _, tm := range []fo.Term{g.L, g.R} {
			if c, ok := tm.(fo.Const); ok {
				consts[fact.Value(c)] = true
			}
		}
	case fo.Not:
		foSig(g.F, arities, consts)
	case fo.And:
		for _, sub := range g.Fs {
			foSig(sub, arities, consts)
		}
	case fo.Or:
		for _, sub := range g.Fs {
			foSig(sub, arities, consts)
		}
	case fo.Exists:
		foSig(g.F, arities, consts)
	case fo.Forall:
		foSig(g.F, arities, consts)
	}
}

// sampleInstance builds a small deterministic instance over the given
// relation arities, mixing formula constants into a fixed value pool.
func sampleInstance(arities map[string]int, consts map[fact.Value]bool) *fact.Instance {
	pool := []fact.Value{"v0", "v1", "v2"}
	for c := range consts {
		pool = append(pool, c)
	}
	I := fact.NewInstance()
	for rel, ar := range arities {
		for i := 0; i < 3; i++ {
			tup := make(fact.Tuple, ar)
			for j := range tup {
				tup[j] = pool[(i+j)%len(pool)]
			}
			I.AddFact(fact.NewFact(rel, tup...))
		}
	}
	return I
}

// checkQuerySoundness wraps q into a single-query transducer over the
// given input arities and crosses the static verdict against the
// semantic chain. Returns (provedStatically, semanticallyUnrefuted).
func checkQuerySoundness(t *testing.T, name string, q query.Query, arities map[string]int, consts map[fact.Value]bool) (bool, bool) {
	t.Helper()
	in := fact.Schema{}
	for rel, ar := range arities {
		in[rel] = ar
	}
	tr, err := transducer.New(name, transducer.Schema{In: in, OutArity: q.Arity()}, nil, nil, nil, q)
	if err != nil {
		return false, false // reserved relation names etc. — out of scope
	}
	rep := Analyze(tr)
	viol, err := calm.CheckMonotone(tr, calm.GrowingChain(sampleInstance(arities, consts)))
	if err != nil {
		return false, false // query evaluation rejected the sample — out of scope
	}
	if rep.Monotone.OK && viol != nil {
		t.Errorf("%s: SOUNDNESS VIOLATION: statically monotone but Q(%v)=%v ⊄ Q(%v)=%v",
			name, viol.I, viol.QI, viol.J, viol.QJ)
	}
	return rep.Monotone.OK, viol == nil
}

// TestStaticSoundnessFuzzCorpora sweeps every parseable query of both
// committed fuzz corpora through the static-vs-semantic cross-check.
func TestStaticSoundnessFuzzCorpora(t *testing.T) {
	swept, proved, gap := 0, 0, 0

	// fo corpus: whole queries, plus bare formulas closed over their
	// free variables.
	var foQueries []*fo.Query
	for _, src := range corpusInputs(t, "../fo/testdata/fuzz/FuzzParseQuery") {
		if q, err := fo.ParseQuery(src); err == nil {
			foQueries = append(foQueries, q)
		}
	}
	for _, src := range corpusInputs(t, "../fo/testdata/fuzz/FuzzParse") {
		f, err := fo.Parse(src)
		if err != nil {
			continue
		}
		fv := fo.FreeVars(f)
		head := make([]string, len(fv))
		for i, v := range fv {
			head[i] = string(v)
		}
		if q, err := fo.NewQuery("corpus", head, f); err == nil {
			foQueries = append(foQueries, q)
		}
	}
	for i, q := range foQueries {
		arities := map[string]int{}
		consts := map[fact.Value]bool{}
		foSig(q.Body, arities, consts)
		name := "fo-corpus-" + strconv.Itoa(i)
		p, unrefuted := checkQuerySoundness(t, name, q, arities, consts)
		swept++
		if p {
			proved++
		} else if unrefuted {
			gap++
		}
	}

	// datalog corpus: each parseable program queried at the head
	// predicate of its last rule.
	for i, src := range corpusInputs(t, "../datalog/testdata/fuzz/FuzzParse") {
		p, err := datalog.Parse(src)
		if err != nil || len(p.Rules) == 0 {
			continue
		}
		q, err := datalog.NewQuery(p, p.Rules[len(p.Rules)-1].Head.Pred)
		if err != nil {
			continue
		}
		arities := map[string]int{}
		for _, rel := range p.EDB() {
			arities[rel] = p.Arities().Arity(rel)
		}
		name := "datalog-corpus-" + strconv.Itoa(i)
		pr, unrefuted := checkQuerySoundness(t, name, q, arities, nil)
		swept++
		if pr {
			proved++
		} else if unrefuted {
			gap++
		}
	}

	if swept == 0 {
		t.Fatal("no corpus query survived parsing — the sweep is vacuous")
	}
	if proved == 0 {
		t.Error("no corpus query statically proved monotone — the sweep is near-vacuous")
	}
	t.Logf("corpora: %d queries swept, %d statically proved, completeness gap %d", swept, proved, gap)
}

// TestWidenedProgramsStream pins the two acceptance programs: both
// were rejected by the pre-analyzer one-bit monotonicity check, are
// now statically accepted, and stream through dist.MonotoneStreaming
// to exactly the centralized answer.
func TestWidenedProgramsStream(t *testing.T) {
	net := network.Line(2)

	// 1. The assignment-free while query (the identity on S).
	wq := while.Query{P: while.MustNew("S", 1)}
	if !wq.Summary().Evidence.Monotone {
		t.Fatal("assignment-free while query must be statically monotone")
	}
	wtr, err := dist.MonotoneStreaming(fact.Schema{"S": 1}, wq)
	if err != nil {
		t.Fatalf("MonotoneStreaming must accept the widened while query: %v", err)
	}
	I := fact.FromFacts(ff("S", "a"), ff("S", "b"))
	got, err := dist.RunToQuiescence(net, wtr, dist.RoundRobinSplit(I, net), dist.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := wq.Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("streamed while identity: got %v, want %v", got, want)
	}

	// 2. The datalog program with absorbed negation (a ∪ (b ∖ a)).
	dq := datalog.MustQuery(datalog.MustParse(`
		ans(X) :- a(X).
		ans(X) :- b(X), !a(X).
	`), "ans")
	if !dq.Summary().Evidence.Monotone {
		t.Fatal("absorbed negation must be statically monotone")
	}
	dtr, err := dist.MonotoneStreaming(fact.Schema{"a": 1, "b": 1}, dq)
	if err != nil {
		t.Fatalf("MonotoneStreaming must accept the absorbed program: %v", err)
	}
	J := fact.FromFacts(ff("a", "p"), ff("b", "q"), ff("b", "p"))
	got, err = dist.RunToQuiescence(net, dtr, dist.RoundRobinSplit(J, net), dist.RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err = dq.Eval(J)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("streamed absorbed program: got %v, want %v", got, want)
	}
}
