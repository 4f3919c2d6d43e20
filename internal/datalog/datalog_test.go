package datalog

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"declnet/internal/fact"
)

func ff(rel string, args ...fact.Value) fact.Fact { return fact.NewFact(rel, args...) }

const tcProgram = `
	tc(X, Y) :- e(X, Y).
	tc(X, Z) :- e(X, Y), tc(Y, Z).
`

func TestParseBasic(t *testing.T) {
	p := MustParse(tcProgram)
	if len(p.Rules) != 2 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	if got := p.IDB(); !reflect.DeepEqual(got, []string{"tc"}) {
		t.Errorf("IDB = %v", got)
	}
	if got := p.EDB(); !reflect.DeepEqual(got, []string{"e"}) {
		t.Errorf("EDB = %v", got)
	}
	if !p.IsPositive() {
		t.Error("TC program should be positive")
	}
	if p.IsNonrecursive() {
		t.Error("TC program should be recursive")
	}
}

func TestParseConstantsAndAnon(t *testing.T) {
	p := MustParse(`
		% comment line
		child(X) :- parent(_, X).
		special(X) :- r(X, 'a b c'), r(X, bob).
	`)
	if len(p.Rules) != 2 {
		t.Fatalf("rules = %d", len(p.Rules))
	}
	r := p.Rules[1]
	if r.Body[0].Atom.Terms[1].Const != "a b c" {
		t.Errorf("quoted constant = %q", r.Body[0].Atom.Terms[1].Const)
	}
	if r.Body[1].Atom.Terms[1].Const != "bob" {
		t.Errorf("lowercase constant = %q", r.Body[1].Atom.Terms[1].Const)
	}
	// Two anonymous variables must be distinct.
	p2 := MustParse(`both(X) :- r(_, X), s(_, X).`)
	lits := p2.Rules[0].Body
	if lits[0].Atom.Terms[0].Var == lits[1].Atom.Terms[0].Var {
		t.Error("anonymous variables collide")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`p(X :- q(X).`,
		`p(X) :- q(X) r(X).`,
		`(X) :- q(X).`,
		`p(X) :- q('a.`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestSafety(t *testing.T) {
	cases := []struct {
		src string
		ok  bool
	}{
		{`p(X) :- q(X).`, true},
		{`p(X) :- q(Y).`, false},              // head var unbound
		{`p(X) :- q(X), not r(Y).`, false},    // negated var unbound
		{`p(X) :- q(X), X != Y.`, false},      // comparison var unbound
		{`p(X) :- q(Y), X = Y.`, true},        // equality binds head var
		{`p(X) :- X = 'a', q(X).`, true},      // constant equality binds
		{`p(X) :- q(X), not r(X).`, true},     // safe negation
		{`p('a') :- q(X).`, true},             // ground head
		{`p(X) :- q(Y), Y = Z, Z = X.`, true}, // chained equalities
		{`flag() :- not s(X).`, false},        // classic unsafe emptiness
		{`flag() :- d(X), not s(X).`, true},   // guarded version
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if c.ok && err != nil {
			t.Errorf("Parse(%q) failed: %v", c.src, err)
		}
		if !c.ok && err == nil {
			t.Errorf("Parse(%q) should be unsafe", c.src)
		}
	}
}

func TestArityConsistency(t *testing.T) {
	if _, err := Parse(`p(X) :- q(X). p(X, Y) :- q(X), q(Y).`); err == nil {
		t.Error("inconsistent arity accepted")
	}
}

// TestParseFactsArityMismatch: a facts file using one predicate at two
// arities is an error naming the statement and both arities, not a
// panic inside the relation store.
func TestParseFactsArityMismatch(t *testing.T) {
	_, err := ParseFacts(`e(a, b). e(c).`)
	if err == nil {
		t.Fatal("facts with inconsistent arity accepted")
	}
	for _, want := range []string{"statement 2", "arity 1", "2 in an earlier fact"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestEvalInputArityMismatch: an input relation at another arity than
// the program's — an IDB predicate (tc/1 against tc/2) or an EDB one
// (e/1 against e/2) — is an error naming the predicate and both
// arities from both evaluators, not a panic inside the relation store
// or a silently empty answer.
func TestEvalInputArityMismatch(t *testing.T) {
	p := MustParse(`tc(X, Y) :- e(X, Y).`)
	for _, c := range []struct{ facts, pred string }{
		{`e(a, b). tc(a).`, "tc"},
		{`e(a).`, "e"},
	} {
		I, err := ParseFacts(c.facts)
		if err != nil {
			t.Fatal(err)
		}
		for name, eval := range map[string]func(*fact.Instance) (*fact.Instance, error){
			"Eval": p.Eval, "EvalNaive": p.evalNaive,
		} {
			_, err := eval(I)
			if err == nil {
				t.Fatalf("%s(%s) accepted a mismatched arity", name, c.facts)
			}
			for _, want := range []string{"relation " + c.pred, "arity 1", "2 in the program"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s(%s): error %q does not mention %q", name, c.facts, err, want)
				}
			}
		}
	}
}

func TestEvalTransitiveClosure(t *testing.T) {
	p := MustParse(tcProgram)
	edb := fact.FromFacts(ff("e", "a", "b"), ff("e", "b", "c"), ff("e", "c", "d"))
	out, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	tc := out.Relation("tc")
	if tc.Len() != 6 {
		t.Fatalf("tc = %v", tc)
	}
	for _, pair := range [][2]fact.Value{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"b", "c"}, {"b", "d"}, {"c", "d"}} {
		if !tc.Contains(fact.Tuple{pair[0], pair[1]}) {
			t.Errorf("missing %v", pair)
		}
	}
}

func TestEvalCycle(t *testing.T) {
	p := MustParse(tcProgram)
	edb := fact.FromFacts(ff("e", "a", "b"), ff("e", "b", "a"))
	out, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	tc := out.Relation("tc")
	if tc.Len() != 4 {
		t.Errorf("tc on 2-cycle = %v", tc)
	}
}

func TestDifferentialEvalNaiveMatchesSemiNaive(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := MustParse(tcProgram + `
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
	`)
	vals := []fact.Value{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 30; trial++ {
		edb := fact.NewInstance()
		for k := 0; k < 8; k++ {
			edb.AddFact(ff("e", vals[r.Intn(5)], vals[r.Intn(5)]))
			edb.AddFact(ff("flat", vals[r.Intn(5)], vals[r.Intn(5)]))
			edb.AddFact(ff("up", vals[r.Intn(5)], vals[r.Intn(5)]))
			edb.AddFact(ff("down", vals[r.Intn(5)], vals[r.Intn(5)]))
		}
		checkAgainstOracle(t, p, edb)
	}
}

func TestStratifiedNegation(t *testing.T) {
	// Complement of reachability: classic stratified program.
	p := MustParse(`
		reach(X, Y) :- e(X, Y).
		reach(X, Z) :- reach(X, Y), e(Y, Z).
		node(X) :- e(X, _).
		node(X) :- e(_, X).
		unreach(X, Y) :- node(X), node(Y), not reach(X, Y).
	`)
	strata, err := p.Stratify()
	if err != nil {
		t.Fatal(err)
	}
	if len(strata) != 2 {
		t.Fatalf("strata = %v", strata)
	}
	stratum0 := strings.Join(strata[0], ",")
	if !strings.Contains(stratum0, "reach") || strings.Contains(stratum0, "unreach") {
		t.Errorf("strata = %v", strata)
	}
	edb := fact.FromFacts(ff("e", "a", "b"), ff("e", "b", "c"))
	out, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	un := out.Relation("unreach")
	if !un.Contains(fact.Tuple{"c", "a"}) {
		t.Error("(c,a) should be unreachable")
	}
	if un.Contains(fact.Tuple{"a", "c"}) {
		t.Error("(a,c) is reachable")
	}
	// 9 pairs total, reach = {ab,bc,ac}: 6 unreachable.
	if un.Len() != 6 {
		t.Errorf("unreach = %v", un)
	}
}

func TestUnstratifiable(t *testing.T) {
	p := MustParse(`
		win(X) :- move(X, Y), not win(Y).
	`)
	if _, err := p.Stratify(); err == nil {
		t.Fatal("win-move should not be stratifiable")
	}
	if _, err := p.Eval(fact.NewInstance()); err == nil {
		t.Fatal("Eval must reject unstratifiable program")
	}
	if _, err := NewQuery(p, "win"); err == nil {
		t.Fatal("NewQuery must reject unstratifiable program")
	}
}

func TestNegationBetweenMutuallyRecursivePreds(t *testing.T) {
	// p and q mutually recursive with a negative edge inside the SCC.
	p := MustParse(`
		p(X) :- e(X), not q(X).
		q(X) :- p(X).
	`)
	if _, err := p.Stratify(); err == nil {
		t.Error("negative edge inside SCC should be rejected")
	}
}

func TestIsNonrecursive(t *testing.T) {
	nr := MustParse(`
		a(X) :- e(X, _).
		b(X) :- a(X), not e(X, X).
	`)
	if !nr.IsNonrecursive() {
		t.Error("acyclic program classified recursive")
	}
	if MustParse(tcProgram).IsNonrecursive() {
		t.Error("TC classified nonrecursive")
	}
	self := MustParse(`p(X) :- p(X), e(X).`)
	if self.IsNonrecursive() {
		t.Error("self-loop classified nonrecursive")
	}
}

func TestEqualityLiterals(t *testing.T) {
	p := MustParse(`
		pair(X, Y) :- s(X), s(Y), X != Y.
		same(X) :- r(X, Y), X = Y.
	`)
	edb := fact.FromFacts(ff("s", "a"), ff("s", "b"), ff("r", "c", "c"), ff("r", "c", "d"))
	out, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("pair").Len() != 2 {
		t.Errorf("pair = %v", out.Relation("pair"))
	}
	if out.Relation("same").Len() != 1 || !out.Relation("same").Contains(fact.Tuple{"c"}) {
		t.Errorf("same = %v", out.Relation("same"))
	}
}

func TestConstantInHeadAndBody(t *testing.T) {
	p := MustParse(`
		tagged('yes', X) :- s(X).
		hit(X) :- r(X, b).
	`)
	out, err := p.Eval(fact.FromFacts(ff("s", "q"), ff("r", "u", "b"), ff("r", "v", "c")))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Relation("tagged").Contains(fact.Tuple{"yes", "q"}) {
		t.Errorf("tagged = %v", out.Relation("tagged"))
	}
	if out.Relation("hit").Len() != 1 || !out.Relation("hit").Contains(fact.Tuple{"u"}) {
		t.Errorf("hit = %v", out.Relation("hit"))
	}
}

func TestGroundFactsInProgram(t *testing.T) {
	p := MustParse(`
		base('a', 'b').
		tc(X, Y) :- base(X, Y).
		tc(X, Z) :- base(X, Y), tc(Y, Z).
	`)
	out, err := p.Eval(fact.NewInstance())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Relation("tc").Contains(fact.Tuple{"a", "b"}) {
		t.Errorf("tc = %v", out.Relation("tc"))
	}
}

func TestTPOperator(t *testing.T) {
	p := MustParse(tcProgram)
	I := fact.FromFacts(ff("e", "a", "b"), ff("e", "b", "c"))
	// One TP application: tc gets copies of e only (tc empty in I).
	d1, err := p.TP(I)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Relation("tc").Len() != 2 {
		t.Fatalf("TP¹ = %v", d1)
	}
	// Second application on I ∪ TP(I): derives (a,c).
	I.UnionWith(d1)
	d2, err := p.TP(I)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Relation("tc").Contains(fact.Tuple{"a", "c"}) {
		t.Errorf("TP² = %v", d2)
	}
}

func TestQueryInterface(t *testing.T) {
	q := MustQuery(MustParse(tcProgram), "tc")
	if q.Arity() != 2 {
		t.Errorf("arity = %d", q.Arity())
	}
	if got := q.Summary().Reads; !reflect.DeepEqual(got, []string{"e"}) {
		t.Errorf("Reads = %v", got)
	}
	if !q.Summary().Evidence.Monotone {
		t.Error("positive program should be monotone")
	}
	out, err := q.Eval(fact.FromFacts(ff("e", "a", "b"), ff("e", "b", "c")))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("out = %v", out)
	}
	// A stray "tc" relation in the input must not leak into the answer.
	out2, err := q.Eval(fact.FromFacts(ff("e", "a", "b"), ff("tc", "x", "y")))
	if err != nil {
		t.Fatal(err)
	}
	if out2.Contains(fact.Tuple{"x", "y"}) {
		t.Error("IDB contamination from input instance")
	}
}

func TestQueryMonotonicityProperty(t *testing.T) {
	// Positive Datalog queries are monotone: Q(I) ⊆ Q(J) for I ⊆ J.
	q := MustQuery(MustParse(tcProgram), "tc")
	r := rand.New(rand.NewSource(17))
	vals := []fact.Value{"a", "b", "c", "d", "e", "f"}
	for trial := 0; trial < 40; trial++ {
		I := fact.NewInstance()
		J := fact.NewInstance()
		for k := 0; k < 10; k++ {
			e := ff("e", vals[r.Intn(6)], vals[r.Intn(6)])
			J.AddFact(e)
			if r.Intn(2) == 0 {
				I.AddFact(e)
			}
		}
		qi, err := q.Eval(I)
		if err != nil {
			t.Fatal(err)
		}
		qj, err := q.Eval(J)
		if err != nil {
			t.Fatal(err)
		}
		if !qi.SubsetOf(qj) {
			t.Fatalf("monotonicity violated: I=%v J=%v", I, J)
		}
	}
}

func TestQueryGenericityProperty(t *testing.T) {
	// Q(h(I)) = h(Q(I)).
	q := MustQuery(MustParse(tcProgram), "tc")
	I := fact.FromFacts(ff("e", "a", "b"), ff("e", "b", "c"), ff("e", "c", "a"))
	h := map[fact.Value]fact.Value{"a": "x", "b": "y", "c": "z"}
	qi, err := q.Eval(I)
	if err != nil {
		t.Fatal(err)
	}
	qhi, err := q.Eval(I.ApplyPermutation(h))
	if err != nil {
		t.Fatal(err)
	}
	if !fact.ApplyPermutationRel(qi, h).Equal(qhi) {
		t.Error("genericity violated")
	}
}

func TestSameGeneration(t *testing.T) {
	p := MustParse(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
	`)
	edb := fact.FromFacts(
		ff("up", "a", "p"), ff("up", "b", "q"),
		ff("flat", "p", "q"),
		ff("down", "p", "a2"), ff("down", "q", "b2"),
	)
	out, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	sg := out.Relation("sg")
	if !sg.Contains(fact.Tuple{"a", "b2"}) {
		t.Errorf("sg = %v", sg)
	}
}

func TestProgramStringRoundTrip(t *testing.T) {
	p := MustParse(`
		tc(X, Y) :- e(X, Y).
		tc(X, Z) :- e(X, Y), tc(Y, Z).
		odd(X) :- s(X), not even(X).
		even(X) :- z(X).
	`)
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, p)
	}
	if p.String() != p2.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", p, p2)
	}
}

func TestDeltaRoundsStopOnFixpoint(t *testing.T) {
	// A program whose naive evaluation needs several rounds; ensure
	// semi-naive terminates with the same result on a long chain.
	p := MustParse(tcProgram)
	edb := fact.NewInstance()
	prev := fact.Value("n0")
	for i := 1; i <= 30; i++ {
		cur := fact.Value("n" + string(rune('0'+i%10)) + string(rune('a'+i/10)))
		edb.AddFact(ff("e", prev, cur))
		prev = cur
	}
	out, err := p.Eval(edb)
	if err != nil {
		t.Fatal(err)
	}
	// Chain of 31 nodes: 30*31/2 = 465 pairs.
	if got := out.Relation("tc").Len(); got != 465 {
		t.Errorf("tc on chain = %d, want 465", got)
	}
}
