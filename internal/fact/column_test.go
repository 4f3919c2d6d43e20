package fact

import (
	"math/rand/v2"
	"testing"
)

func TestRadixPerm(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, n := range []int{0, 1, 2, 7, 1000} {
		for _, span := range []uint32{1, 100, 1 << 20} {
			keys := make([]uint32, n)
			for i := range keys {
				keys[i] = rng.Uint32N(span)
			}
			perm := radixPerm(keys)
			if len(perm) != n {
				t.Fatalf("n=%d span=%d: perm length %d", n, span, len(perm))
			}
			seen := make([]bool, n)
			for i, p := range perm {
				if seen[p] {
					t.Fatalf("n=%d span=%d: row %d selected twice", n, span, p)
				}
				seen[p] = true
				if i > 0 && keys[perm[i-1]] > keys[p] {
					t.Fatalf("n=%d span=%d: not sorted at %d", n, span, i)
				}
			}
		}
	}
}

func TestColviewMaintenance(t *testing.T) {
	r := NewRelation(2)
	r.Add(Tuple{"a", "x"})
	r.Add(Tuple{"b", "y"})
	cv := r.columns()
	if cv.n != 2 {
		t.Fatalf("built view has %d rows, want 2", cv.n)
	}
	// Force index and run, then append: both must catch up on next
	// access, not go stale.
	if got := len(cv.index(0)); got != 2 {
		t.Fatalf("index over %d ids, want 2", got)
	}
	_ = cv.sortedRun(1)
	r.Add(Tuple{"a", "z"})
	if cv.n != 3 {
		t.Fatalf("incremental append missed: %d rows, want 3", cv.n)
	}
	idx := cv.index(0)
	aID, _ := defaultDict.lookup("a")
	if got := len(idx[aID]); got != 2 {
		t.Fatalf("extended index has %d rows for a, want 2", got)
	}
	run := cv.sortedRun(1)
	if len(run) != 3 {
		t.Fatalf("rebuilt run has %d rows, want 3", len(run))
	}
	for i := 1; i < len(run); i++ {
		if cv.col[1][run[i-1]] > cv.col[1][run[i]] {
			t.Fatalf("rebuilt run not sorted")
		}
	}
	// Remove drops the view entirely.
	r.Remove(Tuple{"a", "x"})
	if r.cview != nil {
		t.Fatal("Remove left a stale columnar view")
	}
	if cv := r.columns(); cv.n != 2 {
		t.Fatalf("rebuilt view has %d rows, want 2", cv.n)
	}
}

// naiveJoin computes {(x,z) | R(x,y), S(y,z)} the obvious way.
func naiveJoin(R, S *Relation) *Relation {
	out := NewRelation(2)
	R.Each(func(r Tuple) bool {
		S.Each(func(s Tuple) bool {
			if r[1] == s[0] {
				out.Add(Tuple{r[0], s[1]})
			}
			return true
		})
		return true
	})
	return out
}

func testBatchJoinPath(t *testing.T, nR, nS int) {
	t.Helper()
	rng := rand.New(rand.NewPCG(uint64(nR), uint64(nS)))
	val := func(i int) Value { return Value("v" + string(rune('A'+i%23)) + string(rune('a'+i%17))) }
	R := NewRelation(2)
	for i := 0; i < nR; i++ {
		R.Add(Tuple{val(rng.IntN(50)), val(rng.IntN(50))})
	}
	S := NewRelation(2)
	for i := 0; i < nS; i++ {
		S.Add(Tuple{val(rng.IntN(50)), val(rng.IntN(50))})
	}

	// Schedule by hand: scan R binding (r0,r1), join S on col0 = r1
	// binding r2, project (r0,r2).
	b := NewBatch(3)
	if !b.Join(JoinOp{Rel: R, Arity: 2, ProbeCol: -1, ProbeReg: -1,
		Binds: []ColReg{{Col: 0, Reg: 0}, {Col: 1, Reg: 1}}}, 1<<30) {
		t.Fatal("scan refused")
	}
	if b.Len() != R.Len() {
		t.Fatalf("scan produced %d rows, want %d", b.Len(), R.Len())
	}
	if !b.Join(JoinOp{Rel: S, Arity: 2, ProbeCol: 0, ProbeReg: 1,
		Binds: []ColReg{{Col: 1, Reg: 2}}}, 1<<30) {
		t.Fatal("probe refused")
	}
	out := NewRelation(2)
	b.ProjectInto([]BatchTerm{{Reg: 0}, {Reg: 2}}, out)
	if want := naiveJoin(R, S); !out.Equal(want) {
		t.Fatalf("batch join: got %d tuples, want %d", out.Len(), want.Len())
	}
}

func TestBatchJoinHashPath(t *testing.T) { testBatchJoinPath(t, 200, 300) }

// Above mergeMinRows on both sides the same join runs as a merge on
// sorted runs; the value space (50 values) forces heavy duplicate
// groups through the run-group cross products.
func TestBatchJoinMergePath(t *testing.T) { testBatchJoinPath(t, mergeMinRows, mergeMinRows+100) }

func TestBatchJoinEdgeCases(t *testing.T) {
	R := NewRelation(2)
	R.Add(Tuple{"a", "b"})

	// Nil relation and arity mismatch clear the batch.
	b := NewBatch(2)
	b.Join(JoinOp{Rel: nil, Arity: 2, ProbeCol: -1, ProbeReg: -1}, 1<<20)
	if b.Len() != 0 {
		t.Fatal("nil relation did not clear the batch")
	}
	b = NewBatch(2)
	b.Join(JoinOp{Rel: R, Arity: 3, ProbeCol: -1, ProbeReg: -1}, 1<<20)
	if b.Len() != 0 {
		t.Fatal("arity mismatch did not clear the batch")
	}

	// A constant probe for a value that exists, with a constant check
	// that can never hold.
	b = NewBatch(2)
	b.Join(JoinOp{Rel: R, Arity: 2, ProbeCol: 0, ProbeReg: -1, ProbeVal: "a",
		ConstChecks: []ColConst{{Col: 1, V: "never-interned-zzz"}},
		Binds:       []ColReg{{Col: 1, Reg: 0}}}, 1<<20)
	if b.Len() != 0 {
		t.Fatal("impossible constant check kept rows")
	}

	// Self check: R2(x,x) over {(a,a),(a,b)} keeps only (a,a).
	R2 := NewRelation(2)
	R2.Add(Tuple{"a", "a"})
	R2.Add(Tuple{"a", "b"})
	b = NewBatch(1)
	b.Join(JoinOp{Rel: R2, Arity: 2, ProbeCol: -1, ProbeReg: -1,
		SelfChecks: []ColCol{{Col: 1, Other: 0}},
		Binds:      []ColReg{{Col: 0, Reg: 0}}}, 1<<20)
	out := NewRelation(1)
	b.ProjectInto([]BatchTerm{{Reg: 0}}, out)
	if out.Len() != 1 || !out.Contains(Tuple{"a"}) {
		t.Fatalf("self check: got %v", out)
	}

	// The materialization cap: a cross join refusing to blow up.
	big := NewRelation(1)
	for i := 0; i < 100; i++ {
		big.Add(Tuple{Value(rune('0' + i))})
	}
	b = NewBatch(2)
	b.Join(JoinOp{Rel: big, Arity: 1, ProbeCol: -1, ProbeReg: -1, Binds: []ColReg{{Col: 0, Reg: 0}}}, 1<<20)
	if b.Join(JoinOp{Rel: big, Arity: 1, ProbeCol: -1, ProbeReg: -1, Binds: []ColReg{{Col: 0, Reg: 1}}}, 50) {
		t.Fatal("cross join above maxRows was not refused")
	}
}

func TestBatchFilters(t *testing.T) {
	R := NewRelation(2)
	R.Add(Tuple{"a", "b"})
	R.Add(Tuple{"b", "b"})
	R.Add(Tuple{"c", "d"})
	scan := func() *Batch {
		b := NewBatch(2)
		b.Join(JoinOp{Rel: R, Arity: 2, ProbeCol: -1, ProbeReg: -1,
			Binds: []ColReg{{Col: 0, Reg: 0}, {Col: 1, Reg: 1}}}, 1<<20)
		return b
	}
	project := func(b *Batch) *Relation {
		out := NewRelation(2)
		b.ProjectInto([]BatchTerm{{Reg: 0}, {Reg: 1}}, out)
		return out
	}

	// Eq reg=reg keeps (b,b); Neq keeps the other two.
	b := scan()
	b.FilterEq(BatchTerm{Reg: 0}, BatchTerm{Reg: 1}, true)
	if out := project(b); out.Len() != 1 || !out.Contains(Tuple{"b", "b"}) {
		t.Fatalf("eq: %v", out)
	}
	b = scan()
	b.FilterEq(BatchTerm{Reg: 0}, BatchTerm{Reg: 1}, false)
	if out := project(b); out.Len() != 2 || out.Contains(Tuple{"b", "b"}) {
		t.Fatalf("neq: %v", out)
	}

	// Eq against an uninterned constant clears; Neq keeps everything.
	b = scan()
	b.FilterEq(BatchTerm{Reg: 0}, BatchTerm{Reg: -1, V: "never-interned-qqq"}, true)
	if b.Len() != 0 {
		t.Fatal("eq with uninterned constant kept rows")
	}
	b = scan()
	b.FilterEq(BatchTerm{Reg: 0}, BatchTerm{Reg: -1, V: "never-interned-qqq"}, false)
	if b.Len() != 3 {
		t.Fatal("neq with uninterned constant dropped rows")
	}

	// NotIn against a block list.
	block := NewRelation(2)
	block.Add(Tuple{"a", "b"})
	b = scan()
	b.FilterNotIn(block, []BatchTerm{{Reg: 0}, {Reg: 1}})
	if out := project(b); out.Len() != 2 || out.Contains(Tuple{"a", "b"}) {
		t.Fatalf("not-in: %v", out)
	}
	// NotIn with a constant term never interned: nothing can match.
	b = scan()
	b.FilterNotIn(block, []BatchTerm{{Reg: -1, V: "never-interned-www"}, {Reg: 1}})
	if b.Len() != 3 {
		t.Fatal("not-in with uninterned constant filtered rows")
	}
}

func TestBatchProjectConstantsAndDedup(t *testing.T) {
	R := NewRelation(2)
	R.Add(Tuple{"a", "x"})
	R.Add(Tuple{"a", "y"})
	b := NewBatch(2)
	b.Join(JoinOp{Rel: R, Arity: 2, ProbeCol: -1, ProbeReg: -1,
		Binds: []ColReg{{Col: 0, Reg: 0}, {Col: 1, Reg: 1}}}, 1<<20)
	// Project only column 0 plus a fresh constant: both rows collapse
	// to one output tuple, and the constant is interned on output.
	out := NewRelation(2)
	b.ProjectInto([]BatchTerm{{Reg: 0}, {Reg: -1, V: "fresh-const-kkk"}}, out)
	if out.Len() != 1 || !out.Contains(Tuple{"a", "fresh-const-kkk"}) {
		t.Fatalf("project: %v", out)
	}
	// And appending into a relation that already holds the tuple is a
	// no-op (dedup against existing contents).
	b2 := NewBatch(2)
	b2.Join(JoinOp{Rel: R, Arity: 2, ProbeCol: -1, ProbeReg: -1,
		Binds: []ColReg{{Col: 0, Reg: 0}, {Col: 1, Reg: 1}}}, 1<<20)
	b2.ProjectInto([]BatchTerm{{Reg: 0}, {Reg: -1, V: "fresh-const-kkk"}}, out)
	if out.Len() != 1 {
		t.Fatalf("dedup against existing: %v", out)
	}
}
