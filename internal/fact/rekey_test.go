package fact

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// randomRelations builds n relations over src of arity 0–3 (cycling),
// drawing values from a pool of pool values so that every value
// recurs across rows and relations.
func randomRelations(rng *rand.Rand, src *Dict, n, rows, pool int) []*Relation {
	rels := make([]*Relation, n)
	for j := range rels {
		r := src.NewRelation(j % 4)
		for k := 0; k < rows; k++ {
			t := make(Tuple, r.Arity())
			for c := range t {
				t[c] = Value("rk" + strconv.Itoa(rng.Intn(pool)))
			}
			r.Add(t)
		}
		rels[j] = r
	}
	return rels
}

// sameIDs fails unless every value of r has one ID in a and in b.
func sameIDs(t *testing.T, what string, r *Relation, a, b *Dict) {
	t.Helper()
	r.Each(func(tu Tuple) bool {
		for _, v := range tu {
			ia, oka := a.lookup(v)
			ib, okb := b.lookup(v)
			if !oka || !okb || ia != ib {
				t.Fatalf("%s: %q has ID %d (%v) in one dictionary and %d (%v) in the other", what, v, ia, oka, ib, okb)
			}
		}
		return true
	})
}

// TestRekeyTableOracle: rekeying through the translation table gives
// the same IDs and the same packed key slab as Adding the same tuples,
// in row order, directly into a fresh dictionary — for single
// relations (Relation.Rekey) and for several instances sharing one
// table (RekeyInstances). The source dictionary is either small (the
// wider relations get a dense table) or padded with unrelated values
// (they get a map), and values repeat across rows, so both resolution
// and the memo are exercised.
func TestRekeyTableOracle(t *testing.T) {
	for _, pad := range []int{0, 5000} {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("pad=%d/seed=%d", pad, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				src := NewDict()
				for k := 0; k < pad; k++ {
					src.intern(Value("pad" + strconv.Itoa(k)))
				}
				rels := randomRelations(rng, src, 8, 40, 30)
				for j, r := range rels {
					got, want := NewDict(), NewDict()
					rk := r.Rekey(got)
					direct := want.NewRelation(r.Arity())
					r.Each(func(tu Tuple) bool { direct.Add(tu); return true })
					what := fmt.Sprintf("relation %d (arity %d)", j, r.Arity())
					if string(rk.keys) != string(direct.keys) || rk.Len() != r.Len() {
						t.Fatalf("%s: rekeyed slab differs from the directly built one", what)
					}
					if got.Len() != want.Len() {
						t.Fatalf("%s: rekey interned %d values, Add %d", what, got.Len(), want.Len())
					}
					sameIDs(t, what, r, got, want)
					if !rk.Equal(r) || !r.Equal(rk) {
						t.Fatalf("%s: rekey changed contents", what)
					}
				}

				// Instances: three over src, one nil; relations named
				// so that name order differs from creation order.
				ins := make([]*Instance, 4)
				for k := 0; k < 3; k++ {
					ins[k] = src.NewInstance()
					for j, r := range rels {
						if (j+k)%2 == 0 {
							ins[k].SetRelation("R"+strconv.Itoa(len(rels)-j), r)
						}
					}
				}
				got, want := NewDict(), NewDict()
				out := slices.Clone(ins)
				RekeyInstances(got, out)
				if out[3] != nil {
					t.Fatal("nil instance rekeyed to non-nil")
				}
				direct := make([]*Instance, 3)
				for k := range direct {
					direct[k] = want.NewInstance()
					for _, n := range ins[k].RelNames() {
						r := ins[k].Relation(n)
						dr := want.NewRelation(r.Arity())
						r.Each(func(tu Tuple) bool { dr.Add(tu); return true })
						direct[k].SetRelationOwned(n, dr)
					}
				}
				for k := range direct {
					if !out[k].Equal(ins[k]) || out[k].Dict() != got {
						t.Fatalf("instance %d: rekey changed contents", k)
					}
					for _, n := range ins[k].RelNames() {
						what := fmt.Sprintf("instance %d relation %s", k, n)
						if string(out[k].Relation(n).keys) != string(direct[k].Relation(n).keys) {
							t.Fatalf("%s: rekeyed slab differs from the directly built one", what)
						}
						sameIDs(t, what, ins[k].Relation(n), got, want)
					}
				}
				if got.Len() != want.Len() {
					t.Fatalf("instances: rekey interned %d values, Add %d", got.Len(), want.Len())
				}
			})
		}
	}
}

// TestRekeyReproducibleIDs: two rekeys of one instance into two fresh
// dictionaries assign every value the same ID and build the same key
// slabs — relations are walked in name order, not map order.
func TestRekeyReproducibleIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := NewDict()
	in := src.NewInstance()
	for j, r := range randomRelations(rng, src, 5, 12, 200) {
		in.SetRelationOwned("P"+strconv.Itoa(j), r)
	}
	for trial := 0; trial < 20; trial++ {
		a, b := in.Rekey(NewDict()), in.Rekey(NewDict())
		for _, n := range in.RelNames() {
			if string(a.Relation(n).keys) != string(b.Relation(n).keys) {
				t.Fatalf("trial %d: relation %s rekeyed to different key slabs", trial, n)
			}
			sameIDs(t, n, in.Relation(n), a.Dict(), b.Dict())
		}
	}
}

// TestCrossDictSubsetAbsentValue: a cross-dictionary SubsetOf whose
// destination never interned one of r's values answers false — on the
// first occurrence and on later ones served from the absent memo —
// and a value interned in the destination but in no tuple of s does
// not make a tuple a member.
func TestCrossDictSubsetAbsentValue(t *testing.T) {
	da, db := NewDict(), NewDict()
	s := db.NewRelation(2)
	s.Add(Tuple{"a", "b"})
	s.Add(Tuple{"b", "c"})
	db.intern("stray")

	r := da.NewRelation(2)
	r.Add(Tuple{"a", "b"})
	if !r.SubsetOf(s) {
		t.Fatal("shared tuple not found across dictionaries")
	}
	r.Add(Tuple{"b", "never"})
	r.Add(Tuple{"never", "a"})
	if r.SubsetOf(s) {
		t.Fatal("tuple with a value the destination never interned reported as member")
	}
	// A relation of the same size as s differing only by the absent
	// value: Equal must not mistake it for s in either direction.
	q := da.NewRelation(2)
	q.Add(Tuple{"a", "b"})
	q.Add(Tuple{"never", "c"})
	if q.Equal(s) || s.Equal(q) {
		t.Fatal("relations differing by an absent value compared equal")
	}
	stray := da.NewRelation(2)
	stray.Add(Tuple{"a", "stray"})
	if stray.SubsetOf(s) {
		t.Fatal("tuple of interned values absent from s reported as member")
	}
	// The absent memo: every occurrence after the first of "never" is
	// answered from the table, in dense and in map mode.
	for _, pad := range []int{0, 1000} {
		src := NewDict()
		for k := 0; k < pad; k++ {
			src.intern(Value("pad" + strconv.Itoa(k)))
		}
		many := src.NewRelation(1)
		many.Add(Tuple{"a"})
		many.Add(Tuple{"never"})
		m := newIDMap(src, db, 1000, false)
		if (m.dense != nil) != (pad == 0) || (m.sparse != nil) != (pad > 0) {
			t.Fatalf("pad %d: table mode dense=%v map=%v", pad, m.dense != nil, m.sparse != nil)
		}
		for k := 0; k < 3; k++ {
			if _, ok := m.get(many.rowID(1, 0)); ok {
				t.Fatalf("pad %d: absent value translated on probe %d", pad, k)
			}
			if id, ok := m.get(many.rowID(0, 0)); !ok || db.value(id) != "a" {
				t.Fatalf("pad %d: shared value mistranslated on probe %d", pad, k)
			}
		}
		never := many.rowID(1, 0)
		if m.dense != nil && m.dense[never] != idAbsent || m.sparse != nil && m.sparse[never] != idAbsent {
			t.Fatalf("pad %d: the miss was not memoised as absent", pad)
		}
		if db.Len() != 4 {
			t.Fatalf("lookup-mode table interned into the destination: %d values", db.Len())
		}
	}
}

// instanceSink keeps allocation-counted results on the heap.
var instanceSink *Instance

// TestRekeyTableBound: no translation table is larger than the value
// slots it translates — dense over the source ID space only when that
// space is no larger, a map otherwise — and an instance without rows
// builds no table at all.
func TestRekeyTableBound(t *testing.T) {
	src, dst := NewDict(), NewDict()
	for k := 0; k < 300; k++ {
		src.intern(Value("bound" + strconv.Itoa(k)))
	}
	space := src.idSpace()
	if space < src.Len() {
		t.Fatalf("ID space %d smaller than the %d values interned", space, src.Len())
	}
	for _, slots := range []int{1, tableMin, tableMin + 1, space - 1, space, space + 1, 10 * space} {
		m := newIDMap(src, dst, slots, true)
		if len(m.dense) > slots {
			t.Fatalf("slots %d: dense table of %d entries", slots, len(m.dense))
		}
		dense, sparse := m.dense != nil, m.sparse != nil
		if dense != (slots > tableMin && space <= slots) || sparse != (slots > tableMin && space > slots) {
			t.Fatalf("slots %d, space %d: dense = %v, map = %v", slots, space, dense, sparse)
		}
	}

	empty := src.NewInstance()
	empty.SetRelationOwned("E", src.NewRelation(2))
	empty.SetRelationOwned("Z", src.NewRelation(0))
	var tabs []*idMap
	if out := empty.rekeyVia(&tabs, []*Instance{empty}, dst); len(tabs) != 0 || !out.Equal(empty) || out.Relation("E") == nil {
		t.Fatalf("rekey of an instance without rows built %d tables", len(tabs))
	}
	// Nor does it allocate beyond its empty result.
	rekey := testing.AllocsPerRun(20, func() { instanceSink = empty.Rekey(dst) })
	build := testing.AllocsPerRun(20, func() {
		o := dst.NewInstance()
		o.SetRelationOwned("E", dst.NewRelation(2))
		o.SetRelationOwned("Z", dst.NewRelation(0))
		instanceSink = o
	})
	if rekey > build {
		t.Fatalf("rekey of an instance without rows allocates %v times, building its result %v", rekey, build)
	}
	full := src.NewInstance()
	for k := 0; k < 10; k++ {
		full.AddFact(NewFact("R", Value("bound"+strconv.Itoa(k)), Value("bound"+strconv.Itoa(k+1))))
	}
	full.AddFact(NewFact("S", "bound1"))
	frags := []*Instance{empty, full, full}
	tabs = nil
	full.rekeyVia(&tabs, frags[1:], dst)
	if len(tabs) != 1 || tabs[0].src != src {
		t.Fatalf("rekey built %d tables, want one for the source dictionary", len(tabs))
	}
	if n := len(tabs[0].dense) + len(tabs[0].sparse); n == 0 || n > 2*full.slots() {
		t.Fatalf("table of %d entries for %d slots", n, 2*full.slots())
	}
}

// TestRekeyAllocBound: a 1-row Rekey out of a 100 000-value dictionary
// allocates O(row), not O(dictionary) — for a narrow row, translated
// without a table, and for one wide enough to build one.
func TestRekeyAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("times a benchmark loop")
	}
	src, dst := NewDict(), NewDict()
	for k := 0; k < 100_000; k++ {
		src.intern(Value("big" + strconv.Itoa(k)))
	}
	for _, arity := range []int{2, 2 * tableMin} {
		r := src.NewRelation(arity)
		row := make(Tuple, arity)
		for c := range row {
			row[c] = Value("big" + strconv.Itoa(7919*c))
		}
		r.Add(row)
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				r.Rekey(dst)
			}
		})
		if got := res.AllocedBytesPerOp(); got >= 1024 {
			t.Fatalf("1-row arity-%d Rekey out of a 100000-value dictionary allocates %d B/op, want < 1 KiB", arity, got)
		}
	}
}

// TestRekeyParallelSharedDict: goroutines rekey distinct relations with
// overlapping values into one shared destination at once. Each result
// keeps its contents, every value gets one ID, and the destination
// grows by exactly the distinct values. Run under -race by the
// parallel-race CI job.
func TestRekeyParallelSharedDict(t *testing.T) {
	const goroutines = 8
	src, dst := NewDict(), NewDict()
	rels := randomRelations(rand.New(rand.NewSource(3)), src, goroutines, 200, 150)
	out := make([]*Relation, goroutines)
	var wg sync.WaitGroup
	for g := range rels {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out[g] = rels[g].Rekey(dst)
			// Cross-dictionary reads race the other goroutines' interning.
			if !out[g].SubsetOf(rels[g]) || !rels[g].SubsetOf(out[g]) {
				t.Errorf("goroutine %d: rekeyed relation differs from its source", g)
			}
		}(g)
	}
	wg.Wait()
	distinct := map[Value]bool{}
	for g, r := range rels {
		if !out[g].Equal(r) {
			t.Fatalf("relation %d changed contents", g)
		}
		// Rekey stores keys only; Each decodes them through dst.
		i := 0
		out[g].Each(func(tu Tuple) bool {
			for c, v := range tu {
				if id, ok := dst.lookup(v); !ok || id != out[g].rowID(i, c) {
					t.Fatalf("relation %d: %q keyed as %d, dictionary says %d (%v)", g, v, out[g].rowID(i, c), id, ok)
				}
				distinct[v] = true
			}
			i++
			return true
		})
	}
	if dst.Len() != len(distinct) {
		t.Fatalf("shared destination holds %d values, want the %d distinct ones", dst.Len(), len(distinct))
	}
}
