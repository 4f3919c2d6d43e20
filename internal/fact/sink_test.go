package fact

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// testBatch builds a Batch directly from value columns (interning
// them), bypassing the join pipeline — the unit seam for ProjectInto
// and the batch-append sink.
func testBatch(cols ...[]Value) *Batch {
	b := &Batch{dict: defaultDict, cols: make([][]uint32, len(cols))}
	for c, col := range cols {
		if c == 0 {
			b.n = len(col)
		} else if len(col) != b.n {
			panic("testBatch: ragged columns")
		}
		ids := make([]uint32, len(col))
		for i, v := range col {
			ids[i] = defaultDict.intern(v)
		}
		b.cols[c] = ids
	}
	return b
}

// regHead returns a head projecting the first w registers.
func regHead(w int) []BatchTerm {
	head := make([]BatchTerm, w)
	for i := range head {
		head[i] = BatchTerm{Reg: i}
	}
	return head
}

func TestProjectIntoZeroWidthHead(t *testing.T) {
	b := testBatch([]Value{"a", "b", "c"})
	out := NewRelation(0)
	b.ProjectInto(nil, out)
	if out.Len() != 1 || !out.Contains(Tuple{}) {
		t.Fatalf("zero-width head: got %v, want {()}", out)
	}
	// Idempotent: projecting again must not duplicate or panic.
	b.ProjectInto([]BatchTerm{}, out)
	if out.Len() != 1 {
		t.Fatalf("zero-width head re-project: got %d tuples, want 1", out.Len())
	}

	// Through a delta sink: the empty fact stages once, and not at all
	// when already committed.
	d := NewDelta(NewInstance())
	b.ProjectInto(nil, d.Sink("p", 0))
	if !d.Dirty() {
		t.Fatal("zero-width head into delta sink: not staged")
	}
	d.Commit()
	b.ProjectInto(nil, d.Sink("p", 0))
	if d.Dirty() {
		t.Fatal("zero-width head into delta sink: staged an already-committed fact")
	}
}

func TestProjectIntoEmptyBatch(t *testing.T) {
	b := testBatch([]Value{"a", "b"})
	b.keepRows(nil) // empty the batch the way a filter would
	if b.Len() != 0 {
		t.Fatalf("keepRows(nil) left %d rows", b.Len())
	}
	out := NewRelation(2)
	b.ProjectInto([]BatchTerm{{Reg: 0}, {Reg: -1, V: "k"}}, out)
	if out.Len() != 0 {
		t.Fatalf("empty batch projected %d tuples", out.Len())
	}
	// Zero-width head over an empty batch emits nothing either.
	out0 := NewRelation(0)
	b.ProjectInto(nil, out0)
	if out0.Len() != 0 {
		t.Fatalf("empty batch, zero-width head: projected %d tuples", out0.Len())
	}
	d := NewDelta(NewInstance())
	b.ProjectInto([]BatchTerm{{Reg: 0}, {Reg: 1}}, d.Sink("p", 2))
	if d.Dirty() {
		t.Fatal("empty batch staged facts through delta sink")
	}
}

// TestProjectIntoMixedWidthSlabs projects heads of different widths
// back to back — the slab-carving regression: a slab sized for one
// width must never leak rows into a projection of another width.
func TestProjectIntoMixedWidthSlabs(t *testing.T) {
	n := 200
	c0 := make([]Value, n)
	c1 := make([]Value, n)
	c2 := make([]Value, n)
	for i := 0; i < n; i++ {
		c0[i] = Value(fmt.Sprintf("a%d", i))
		c1[i] = Value(fmt.Sprintf("b%d", i))
		c2[i] = Value(fmt.Sprintf("c%d", i))
	}
	b := testBatch(c0, c1, c2)

	check := func(head []BatchTerm, w int) {
		t.Helper()
		out := NewRelation(w)
		b.ProjectInto(head, out)
		if out.Len() != n {
			t.Fatalf("width-%d projection: got %d tuples, want %d", w, out.Len(), n)
		}
		for i := 0; i < n; i++ {
			want := make(Tuple, w)
			for j, h := range head {
				if h.Reg >= 0 {
					want[j] = []Value{c0[i], c1[i], c2[i]}[h.Reg]
				} else {
					want[j] = h.V
				}
			}
			if !out.Contains(want) {
				t.Fatalf("width-%d projection: missing %v", w, want)
			}
		}
	}
	check(regHead(3), 3)
	check(regHead(1), 1)
	check([]BatchTerm{{Reg: 2}, {Reg: 0}}, 2)
	check([]BatchTerm{{Reg: 1}, {Reg: -1, V: "K"}, {Reg: 0}}, 3)
}

// refAppend is the scalar oracle for batchAppend: per-row Add with
// exclude probes.
func refAppend(dst *Relation, exclude *Relation, cols [][]Value, n int) {
	w := dst.Arity()
	for i := 0; i < n; i++ {
		tup := make(Tuple, w)
		for c := 0; c < w; c++ {
			tup[c] = cols[c][i]
		}
		if exclude != nil && exclude.Contains(tup) {
			continue
		}
		dst.Add(tup)
	}
}

// TestBatchAppendDifferential drives batchAppend from small batches
// to large ones (a 3·2^13-row batch against a 2·2^13-row destination
// and a 2^13-row exclude; a 2^13-row batch against a destination nine
// times its size) and pins it to the scalar oracle, including
// index/columnar-view consistency of the destination afterwards.
func TestBatchAppendDifferential(t *testing.T) {
	const big = 1 << 13
	rng := rand.New(rand.NewSource(7))
	for _, cfg := range []struct {
		name       string
		n, domain  int
		preSeed    int // tuples pre-inserted into dst (overlap source)
		excludeTop int // tuples pre-inserted into exclude
	}{
		{"small-probe", 40, 10, 10, 8},
		{"sorted-dups", 500, 12, 60, 40},
		{"sorted-vs-empty", 500, 1000, 0, 0},
		{"large-vs-exclude", 3 * big, 200, 2 * big, big},
		// Large batch against a small destination.
		{"hash-regime", big, 40, 200, 0},
		// Large destination against fewer candidates.
		{"large-dst", big, 200000, 9 * big, 0},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			w := 2
			val := func() Value { return Value(fmt.Sprintf("v%d", rng.Intn(cfg.domain))) }
			randRel := func(count int) *Relation {
				r := NewRelation(w)
				for i := 0; i < count; i++ {
					r.Add(Tuple{val(), val()})
				}
				return r
			}
			dst := randRel(cfg.preSeed)
			var exclude *Relation
			if cfg.excludeTop > 0 {
				exclude = randRel(cfg.excludeTop)
			}
			// Warm dst's lazy structures so the append must maintain
			// them rather than rebuild from scratch.
			dst.Lookup(0, "v0")
			dst.columns().sortedRun(1)

			ref := dst.Clone()
			cols := make([][]Value, w)
			idCols := make([][]uint32, w)
			for c := 0; c < w; c++ {
				cols[c] = make([]Value, cfg.n)
				idCols[c] = make([]uint32, cfg.n)
				for i := 0; i < cfg.n; i++ {
					cols[c][i] = val()
					idCols[c][i] = defaultDict.intern(cols[c][i])
				}
			}
			batchAppend(dst, exclude, idCols, cfg.n)
			refAppend(ref, exclude, cols, cfg.n)

			if !dst.Equal(ref) {
				t.Fatalf("batchAppend diverged from oracle: %d vs %d tuples", dst.Len(), ref.Len())
			}
			// The maintained index must agree with a fresh build over
			// the same tuple set, and each column of the maintained
			// columnar view with a fresh transposition of dst's slab.
			fresh := ref.Clone()
			for _, probe := range cols[0] {
				if got, want := len(dst.Lookup(0, probe)), len(fresh.Lookup(0, probe)); got != want {
					t.Fatalf("Lookup(0,%s): maintained index has %d rows, fresh %d", probe, got, want)
				}
			}
			cv := dst.columns()
			dst.cview = nil
			fcv := dst.columns()
			if cv.n != fcv.n {
				t.Fatalf("columnar view rows: %d vs fresh %d", cv.n, fcv.n)
			}
			for c := range fcv.col {
				if !slices.Equal(cv.col[c], fcv.col[c]) {
					t.Fatalf("column %d: maintained view disagrees with fresh build", c)
				}
			}
		})
	}
}

// TestBatchAppendRemoveReAdd drives the row-store probes through
// Remove: append into a large relation, Remove tuples (emptying their
// hash-table slots and dropping the whole columnar view), then append
// again — the probes must dedup exactly, including against re-added
// tuples.
func TestBatchAppendRemoveReAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := 2
	const big = 1 << 13
	n := 2 * big
	val := func() Value { return Value(fmt.Sprintf("rr%d", rng.Intn(300))) }
	mkCols := func() ([][]Value, [][]uint32) {
		cols := make([][]Value, w)
		idCols := make([][]uint32, w)
		for c := 0; c < w; c++ {
			cols[c] = make([]Value, n)
			idCols[c] = make([]uint32, n)
			for i := 0; i < n; i++ {
				cols[c][i] = val()
				idCols[c][i] = defaultDict.intern(cols[c][i])
			}
		}
		return cols, idCols
	}
	dst := NewRelation(w)
	ref := NewRelation(w)
	for round := 0; round < 3; round++ {
		cols, idCols := mkCols()
		batchAppend(dst, nil, idCols, n)
		refAppend(ref, nil, cols, n)
		if !dst.Equal(ref) {
			t.Fatalf("round %d: diverged after append (%d vs %d)", round, dst.Len(), ref.Len())
		}
		// Remove a sample (invalidates dst's columnar view),
		// then immediately re-add half of it through the batch path.
		var victims []Tuple
		dst.Each(func(tu Tuple) bool {
			if len(victims) < big/2 {
				victims = append(victims, tu)
			}
			return len(victims) < big/2
		})
		for _, tu := range victims {
			dst.Remove(tu)
			ref.Remove(tu)
		}
		half := victims[:len(victims)/2]
		reCols := make([][]Value, w)
		reIDs := make([][]uint32, w)
		for c := 0; c < w; c++ {
			reCols[c] = make([]Value, len(half))
			reIDs[c] = make([]uint32, len(half))
			for i, tu := range half {
				reCols[c][i] = tu[c]
				reIDs[c][i] = defaultDict.intern(tu[c])
			}
		}
		batchAppend(dst, nil, reIDs, len(half))
		refAppend(ref, nil, reCols, len(half))
		if !dst.Equal(ref) {
			t.Fatalf("round %d: diverged after remove/re-add (%d vs %d)", round, dst.Len(), ref.Len())
		}
	}
}

// stage is the reference the delta sink is checked against: it stages
// one fact unless Full or the staging area already holds it,
// reporting whether it was new.
func stage(d *Delta, f Fact) bool {
	if d.Full.HasFact(f) {
		return false
	}
	return d.staged.AddFact(f)
}

// TestDeltaSinkDifferential pins the column-level staging sink to the
// stage reference across rounds of a growing Full instance.
func TestDeltaSinkDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	val := func() Value { return Value(fmt.Sprintf("d%d", rng.Intn(40))) }

	dSink := NewDelta(NewInstance())
	dRef := NewDelta(NewInstance())
	for round := 0; round < 5; round++ {
		n := 300
		cols := make([][]Value, 2)
		idCols := make([][]uint32, 2)
		for c := range cols {
			cols[c] = make([]Value, n)
			idCols[c] = make([]uint32, n)
			for i := 0; i < n; i++ {
				cols[c][i] = val()
				idCols[c][i] = defaultDict.intern(cols[c][i])
			}
		}
		dSink.Sink("r", 2).appendBatch(idCols, n)
		for i := 0; i < n; i++ {
			stage(dRef, Fact{Rel: "r", Args: Tuple{cols[0][i], cols[1][i]}})
		}
		if dSink.Dirty() != dRef.Dirty() {
			t.Fatalf("round %d: Dirty %v vs oracle %v", round, dSink.Dirty(), dRef.Dirty())
		}
		got, want := dSink.Commit(), dRef.Commit()
		if !got.Equal(want) {
			t.Fatalf("round %d: committed delta diverged:\n got %v\nwant %v", round, got, want)
		}
	}
	if !dSink.Full.Equal(dRef.Full) {
		t.Fatal("Full instances diverged after interleaved staging")
	}
}

// TestDeltaSinkAdd pins the sink's scalar path (the tuple executor's
// emit) to the stage reference's semantics.
func TestDeltaSinkAdd(t *testing.T) {
	d := NewDelta(FromFacts(NewFact("r", "a", "b")))
	s := d.Sink("r", 2)
	if s.Add(Tuple{"a", "b"}) {
		t.Fatal("Add staged an already-committed fact")
	}
	if !s.Add(Tuple{"a", "c"}) {
		t.Fatal("Add rejected a new fact")
	}
	if s.Add(Tuple{"a", "c"}) {
		t.Fatal("Add staged a duplicate")
	}
	// The staged copy must be private: mutating the caller's tuple
	// after Add must not corrupt the staging area.
	tup := Tuple{"x", "y"}
	s.Add(tup)
	tup[0] = "CORRUPT"
	delta := d.Commit()
	if !delta.HasFact(NewFact("r", "x", "y")) || delta.HasFact(NewFact("r", "CORRUPT", "y")) {
		t.Fatal("Add shared storage with the caller's tuple")
	}
}
