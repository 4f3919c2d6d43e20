package fact

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTupleKeyInjective(t *testing.T) {
	cases := [][2]Tuple{
		{{"a,b"}, {"a", "b"}},
		{{"a\\"}, {"a", ""}},
		{{"a(", "b"}, {"a", "(b"}},
		{{""}, {}},
		{{"x"}, {"x", ""}},
	}
	for _, c := range cases {
		if c[0].Key() == c[1].Key() {
			t.Errorf("tuples %v and %v share key %q", c[0], c[1], c[0].Key())
		}
	}
}

func TestTupleKeyDeterministic(t *testing.T) {
	tu := Tuple{"a", "b", "c"}
	if tu.Key() != tu.Clone().Key() {
		t.Fatal("clone changed key")
	}
}

func TestFactKeyDistinguishesRelations(t *testing.T) {
	f := NewFact("R", "a")
	g := NewFact("S", "a")
	if f.Key() == g.Key() {
		t.Errorf("facts with different relations share key %q", f.Key())
	}
	// Relation name containing '(' must not collide with argument.
	h := Fact{Rel: "R(a", Args: Tuple{}}
	k := Fact{Rel: "R", Args: Tuple{"a"}}
	if h.Key() == k.Key() {
		t.Errorf("escaping failure: %q", h.Key())
	}
}

func TestRelationAddRemoveContains(t *testing.T) {
	r := NewRelation(2)
	if !r.Add(Tuple{"a", "b"}) {
		t.Fatal("first add should report new")
	}
	if r.Add(Tuple{"a", "b"}) {
		t.Fatal("second add should report not new")
	}
	if !r.Contains(Tuple{"a", "b"}) {
		t.Fatal("missing tuple")
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	if !r.Remove(Tuple{"a", "b"}) {
		t.Fatal("remove should succeed")
	}
	if r.Remove(Tuple{"a", "b"}) {
		t.Fatal("double remove should fail")
	}
	if !r.Empty() {
		t.Fatal("relation should be empty")
	}
}

func TestRelationArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong arity")
		}
	}()
	NewRelation(2).Add(Tuple{"a"})
}

func TestRelationSetOps(t *testing.T) {
	r := NewRelation(1)
	s := NewRelation(1)
	r.Add(Tuple{"a"})
	r.Add(Tuple{"b"})
	s.Add(Tuple{"b"})
	s.Add(Tuple{"c"})

	diff := r.Minus(s)
	if diff.Len() != 1 || !diff.Contains(Tuple{"a"}) {
		t.Errorf("Minus = %v", diff)
	}
	inter := r.Intersect(s)
	if inter.Len() != 1 || !inter.Contains(Tuple{"b"}) {
		t.Errorf("Intersect = %v", inter)
	}
	u := r.Clone()
	u.UnionWith(s)
	if u.Len() != 3 {
		t.Errorf("Union len = %d", u.Len())
	}
	if !r.SubsetOf(u) || !s.SubsetOf(u) {
		t.Error("operands should be subsets of union")
	}
	if u.SubsetOf(r) {
		t.Error("union should not be subset of operand")
	}
}

func TestRelationMinusIntersectNil(t *testing.T) {
	r := NewRelation(1)
	r.Add(Tuple{"a"})
	if d := r.Minus(nil); d.Len() != 1 {
		t.Errorf("Minus(nil) = %v", d)
	}
	if i := r.Intersect(nil); i.Len() != 0 {
		t.Errorf("Intersect(nil) = %v", i)
	}
	if !r.Equal(r.Clone()) {
		t.Error("clone not equal")
	}
	if r.Equal(nil) {
		t.Error("nonempty relation equal to nil")
	}
	if !NewRelation(1).Equal(nil) {
		t.Error("empty relation should equal nil")
	}
}

func TestTuplesDeterministicOrder(t *testing.T) {
	r := NewRelation(1)
	for _, v := range []Value{"c", "a", "b"} {
		r.Add(Tuple{v})
	}
	got := r.Tuples()
	want := []Tuple{{"a"}, {"b"}, {"c"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tuples() = %v, want %v", got, want)
	}
}

func TestInstanceFacts(t *testing.T) {
	i := FromFacts(
		NewFact("S", "b"),
		NewFact("R", "a", "b"),
		NewFact("R", "a", "a"),
	)
	if i.Size() != 3 {
		t.Fatalf("Size = %d", i.Size())
	}
	if !i.HasFact(NewFact("R", "a", "b")) {
		t.Fatal("missing fact")
	}
	if i.HasFact(NewFact("R", "b", "a")) {
		t.Fatal("phantom fact")
	}
	facts := i.Facts()
	if len(facts) != 3 || facts[0].Rel != "R" || facts[2].Rel != "S" {
		t.Errorf("Facts order: %v", facts)
	}
	if !i.RemoveFact(NewFact("S", "b")) {
		t.Fatal("remove failed")
	}
	if i.RemoveFact(NewFact("S", "b")) {
		t.Fatal("double remove succeeded")
	}
}

func TestInstanceUnionSubsetEqual(t *testing.T) {
	a := FromFacts(NewFact("R", "x"))
	b := FromFacts(NewFact("R", "y"), NewFact("S", "z", "z"))
	u := Union(a, b)
	if u.Size() != 3 {
		t.Fatalf("union size = %d", u.Size())
	}
	if !a.SubsetOf(u) || !b.SubsetOf(u) {
		t.Error("subset violated")
	}
	if u.SubsetOf(a) {
		t.Error("u ⊆ a should fail")
	}
	if !u.Equal(Union(b, a)) {
		t.Error("union should commute")
	}
	// Equal ignores empty relations.
	c := a.Clone()
	c.SetRelation("T", NewRelation(3))
	if !c.Equal(a) || !a.Equal(c) {
		t.Error("empty relation should not affect equality")
	}
}

// TestInstanceEqualOneSidedRelations: a relation present on one side
// only decides Equal by its emptiness alone, in both directions, over
// one dictionary and across two.
func TestInstanceEqualOneSidedRelations(t *testing.T) {
	for _, cross := range []bool{false, true} {
		other := DefaultDict()
		if cross {
			other = NewDict()
		}
		base := FromFacts(NewFact("R", "x", "y"))
		same := other.FromFacts(NewFact("R", "x", "y"))
		extra := other.FromFacts(NewFact("R", "x", "y"), NewFact("S", "z"))
		if base.Equal(extra) || extra.Equal(base) {
			t.Errorf("cross=%v: a nonempty relation on one side only compared equal", cross)
		}
		emptyS := other.FromFacts(NewFact("R", "x", "y"))
		emptyS.SetRelationOwned("S", other.NewRelation(1))
		if !base.Equal(emptyS) || !emptyS.Equal(base) {
			t.Errorf("cross=%v: an empty relation vs an absent one compared unequal", cross)
		}
		if !same.Equal(base) || !base.Equal(same) {
			t.Errorf("cross=%v: equal instances compared unequal", cross)
		}
		// Same names, different contents: the shared relation decides.
		diff := other.FromFacts(NewFact("R", "x", "z"))
		if base.Equal(diff) || diff.Equal(base) {
			t.Errorf("cross=%v: differing shared relations compared equal", cross)
		}
	}
}

func TestInstanceActiveDomain(t *testing.T) {
	i := FromFacts(NewFact("R", "b", "a"), NewFact("S", "c"))
	got := i.ActiveDomain()
	want := []Value{"a", "b", "c"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("adom = %v, want %v", got, want)
	}
}

func TestInstanceRestrict(t *testing.T) {
	i := FromFacts(NewFact("R", "a"), NewFact("S", "b"))
	r := i.Restrict(Schema{"R": 1})
	if r.Size() != 1 || !r.HasFact(NewFact("R", "a")) {
		t.Errorf("Restrict = %v", r)
	}
}

func TestInstanceConforms(t *testing.T) {
	i := FromFacts(NewFact("R", "a", "b"))
	if err := i.Conforms(Schema{"R": 2}); err != nil {
		t.Errorf("unexpected: %v", err)
	}
	if err := i.Conforms(Schema{"R": 3}); err == nil {
		t.Error("arity mismatch not detected")
	}
	if err := i.Conforms(Schema{"S": 2}); err == nil {
		t.Error("undeclared relation not detected")
	}
}

func TestApplyPermutation(t *testing.T) {
	i := FromFacts(NewFact("R", "a", "b"))
	h := map[Value]Value{"a": "b", "b": "a"}
	j := i.ApplyPermutation(h)
	if !j.HasFact(NewFact("R", "b", "a")) || j.Size() != 1 {
		t.Errorf("permuted = %v", j)
	}
	// Applying h twice is identity for an involution.
	if !j.ApplyPermutation(h).Equal(i) {
		t.Error("involution failed")
	}
}

func TestSchemaOps(t *testing.T) {
	s := Schema{"R": 2, "S": 1}
	if !s.Has("R") || s.Has("T") {
		t.Error("Has wrong")
	}
	if s.Arity("R") != 2 || s.Arity("T") != -1 {
		t.Error("Arity wrong")
	}
	if got := s.Names(); !reflect.DeepEqual(got, []string{"R", "S"}) {
		t.Errorf("Names = %v", got)
	}
	u, err := s.Union(Schema{"T": 3})
	if err != nil || len(u) != 3 {
		t.Errorf("Union = %v, %v", u, err)
	}
	if _, err := s.Union(Schema{"R": 3}); err == nil {
		t.Error("conflicting union should error")
	}
	if !s.Disjoint(Schema{"T": 1}) || s.Disjoint(Schema{"R": 9}) {
		t.Error("Disjoint wrong")
	}
}

// randomTuple produces arbitrary small tuples for property tests.
func randomTuple(r *rand.Rand, arity int) Tuple {
	letters := []Value{"a", "b", "c", "d", ",", "\\", "(", ")"}
	t := make(Tuple, arity)
	for i := range t {
		t[i] = letters[r.Intn(len(letters))]
	}
	return t
}

func TestPropTupleKeyInjectivity(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		a := randomTuple(r, 1+r.Intn(3))
		b := randomTuple(r, 1+r.Intn(3))
		if a.Equal(b) {
			return a.Key() == b.Key()
		}
		return a.Key() != b.Key()
	}
	for i := 0; i < 2000; i++ {
		if !f() {
			t.Fatal("key injectivity violated")
		}
	}
}

func TestPropUnionIdempotentCommutative(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	gen := func(vals []uint8) *Relation {
		r := NewRelation(1)
		for _, v := range vals {
			r.Add(Tuple{Value('a' + v%6)})
		}
		return r
	}
	prop := func(xs, ys []uint8) bool {
		a, b := gen(xs), gen(ys)
		ab := a.Clone()
		ab.UnionWith(b)
		ba := b.Clone()
		ba.UnionWith(a)
		aa := a.Clone()
		aa.UnionWith(a)
		return ab.Equal(ba) && aa.Equal(a)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropMinusIntersectPartition(t *testing.T) {
	// (a \ b) ∪ (a ∩ b) == a, and they are disjoint.
	cfg := &quick.Config{MaxCount: 200}
	gen := func(vals []uint8) *Relation {
		r := NewRelation(1)
		for _, v := range vals {
			r.Add(Tuple{Value('a' + v%6)})
		}
		return r
	}
	prop := func(xs, ys []uint8) bool {
		a, b := gen(xs), gen(ys)
		diff := a.Minus(b)
		inter := a.Intersect(b)
		if diff.Intersect(inter).Len() != 0 {
			return false
		}
		u := diff.Clone()
		u.UnionWith(inter)
		return u.Equal(a)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropInstancePermutationGenericity(t *testing.T) {
	// For any instance and any permutation of its adom,
	// |h(I)| == |I| and h⁻¹(h(I)) == I.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		i := NewInstance()
		n := r.Intn(10)
		for k := 0; k < n; k++ {
			i.AddFact(Fact{Rel: "R", Args: randomTuple(r, 2)})
		}
		adom := i.ActiveDomain()
		perm := r.Perm(len(adom))
		h := make(map[Value]Value, len(adom))
		hinv := make(map[Value]Value, len(adom))
		for idx, v := range adom {
			h[v] = adom[perm[idx]]
			hinv[adom[perm[idx]]] = v
		}
		j := i.ApplyPermutation(h)
		if j.Size() != i.Size() {
			t.Fatalf("permutation changed size: %d vs %d", j.Size(), i.Size())
		}
		if !j.ApplyPermutation(hinv).Equal(i) {
			t.Fatal("inverse permutation did not restore instance")
		}
	}
}

func TestAdoptActiveDomain(t *testing.T) {
	base := FromFacts(NewFact("R", "b"), NewFact("R", "d"))
	_ = base.ActiveDomain() // materialize the memo
	next := base.ShallowClone()
	r := base.Relation("R").Clone()
	r.Add(Tuple{"a"})
	r.Add(Tuple{"c"})
	r.Add(Tuple{"e"})
	next.SetRelationOwned("R", r)
	next.AdoptActiveDomain(base, []Value{"e", "a", "c", "a", "b"})
	want := []Value{"a", "b", "c", "d", "e"}
	if got := next.ActiveDomain(); !reflect.DeepEqual(got, want) {
		t.Errorf("adopted adom = %v, want %v", got, want)
	}
	for _, v := range want {
		if !next.AdomContains(v) {
			t.Errorf("AdomContains(%s) = false", v)
		}
	}
	if next.AdomContains("z") {
		t.Error("phantom adom member")
	}
	// Recomputation from scratch agrees.
	fresh := next.Clone()
	if got := fresh.ActiveDomain(); !reflect.DeepEqual(got, want) {
		t.Errorf("recomputed adom = %v, want %v", got, want)
	}
}
