package fact

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// relOracle is the reference model of a Relation: a set of tuples
// keyed by a value-level encoding (independent of interning and of the
// packed-key store) plus the row order the store promises — insertion
// order, with Remove moving the last row into the freed one.
type relOracle struct {
	order []Tuple
	pos   map[string]int
}

func newRelOracle() *relOracle { return &relOracle{pos: map[string]int{}} }

func oracleKey(t Tuple) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = strconv.Quote(string(v))
	}
	return strings.Join(parts, ",")
}

func (o *relOracle) has(t Tuple) bool { _, ok := o.pos[oracleKey(t)]; return ok }

func (o *relOracle) add(t Tuple) bool {
	k := oracleKey(t)
	if _, ok := o.pos[k]; ok {
		return false
	}
	o.pos[k] = len(o.order)
	o.order = append(o.order, t.Clone())
	return true
}

func (o *relOracle) remove(t Tuple) bool {
	k := oracleKey(t)
	i, ok := o.pos[k]
	if !ok {
		return false
	}
	last := len(o.order) - 1
	if i != last {
		o.order[i] = o.order[last]
		o.pos[oracleKey(o.order[i])] = i
	}
	o.order = o.order[:last]
	delete(o.pos, k)
	return true
}

func (o *relOracle) clone() *relOracle {
	c := newRelOracle()
	for _, t := range o.order {
		c.add(t)
	}
	return c
}

// checkRelation compares r with the oracle: length, Each (exact row
// order), Tuples (sorted, same set), and membership of every tuple.
func checkRelation(t *testing.T, what string, r *Relation, o *relOracle) {
	t.Helper()
	if r.Len() != len(o.order) {
		t.Fatalf("%s: Len = %d, oracle has %d", what, r.Len(), len(o.order))
	}
	i := 0
	r.Each(func(tu Tuple) bool {
		if i >= len(o.order) || !tu.Equal(o.order[i]) {
			t.Fatalf("%s: Each row %d = %v, oracle order %v", what, i, tu, o.order)
		}
		i++
		return true
	})
	ts := r.Tuples()
	if len(ts) != len(o.order) {
		t.Fatalf("%s: Tuples has %d, oracle %d", what, len(ts), len(o.order))
	}
	for j, tu := range ts {
		if !o.has(tu) {
			t.Fatalf("%s: Tuples lists %v, absent from oracle", what, tu)
		}
		if j > 0 && !ts[j-1].Less(tu) {
			t.Fatalf("%s: Tuples out of order at %d: %v, %v", what, j, ts[j-1], tu)
		}
	}
	for _, tu := range o.order {
		if !r.Contains(tu) {
			t.Fatalf("%s: Contains(%v) = false", what, tu)
		}
	}
}

// snapshot records what a reader of r can observe, to prove later that
// mutating a clone left r alone.
type relSnapshot struct {
	each   []Tuple
	tuples []Tuple
	keys   []byte
}

func snapshotOf(r *Relation) relSnapshot {
	var s relSnapshot
	r.Each(func(t Tuple) bool { s.each = append(s.each, t.Clone()); return true })
	for _, t := range r.Tuples() {
		s.tuples = append(s.tuples, t.Clone())
	}
	s.keys = bytes.Clone(r.keys)
	return s
}

func (s relSnapshot) unchanged(r *Relation) bool {
	got := snapshotOf(r)
	if len(got.each) != len(s.each) || len(got.tuples) != len(s.tuples) || !bytes.Equal(got.keys, s.keys) {
		return false
	}
	for i := range s.each {
		if !got.each[i].Equal(s.each[i]) || !got.tuples[i].Equal(s.tuples[i]) {
			return false
		}
	}
	return true
}

// TestRelationStoreOracle runs random sequences of every Relation
// operation against relOracle, for arities 0–3. Each sequence grows
// the relation well past linearMax (through several hash-table
// doublings) and shrinks it back, so probes cross between the linear
// scan and the table both ways, and swap-Remove's backward-shift
// deletion runs at every load. Rows arrive through Add and through
// the three key-only appends — the batch sink, Delta.Commit's
// appendDisjoint of a stage filled by both sink methods, and Rekey —
// so every read runs on relations whose rows are partly or wholly
// still undecoded, and Each must still list them in insertion order.
// Clones are mutated — Adds, and Removes that rewrite slab bytes —
// while the original's contents, Each order, Tuples and key slab must
// stay as they were.
func TestRelationStoreOracle(t *testing.T) {
	for arity := 0; arity <= 3; arity++ {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("arity=%d/seed=%d", arity, seed), func(t *testing.T) {
				testRelationStoreOracle(t, arity, seed)
			})
		}
	}
}

func testRelationStoreOracle(t *testing.T, arity int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, uint64(arity)))
	// A universe of about 600 distinct tuples per arity (1 for arity 0).
	universe := map[int]int{0: 1, 1: 600, 2: 25, 3: 9}[arity]
	tuple := func() Tuple {
		tu := make(Tuple, arity)
		for i := range tu {
			tu[i] = Value("s" + strconv.Itoa(rng.IntN(universe)))
		}
		return tu
	}
	// present draws a stored tuple (or a fresh one when r is empty).
	present := func(o *relOracle) Tuple {
		if len(o.order) == 0 {
			return tuple()
		}
		return o.order[rng.IntN(len(o.order))]
	}
	// draw returns n tuples, about half of them in o, with repeats.
	draw := func(o *relOracle, n int) []Tuple {
		ts := make([]Tuple, n)
		for i := range ts {
			switch {
			case i > 0 && rng.IntN(6) == 0:
				ts[i] = ts[rng.IntN(i)]
			case rng.IntN(2) == 0:
				ts[i] = present(o)
			default:
				ts[i] = tuple()
			}
		}
		return ts
	}
	// batchCols interns ts into the ID columns a batch executor hands
	// a sink.
	batchCols := func(ts []Tuple) [][]uint32 {
		cols := make([][]uint32, arity)
		for c := range cols {
			cols[c] = make([]uint32, len(ts))
			for i, tu := range ts {
				cols[c][i] = defaultDict.intern(tu[c])
			}
		}
		return cols
	}
	// other builds a random relation overlapping r, sized across the
	// linear-scan threshold, through Add or, key-only, through the
	// batch sink.
	other := func(o *relOracle) (*Relation, *relOracle) {
		s, so := NewRelation(arity), newRelOracle()
		ts := draw(o, rng.IntN(3*linearMax))
		if rng.IntN(2) == 0 {
			s.appendBatch(batchCols(ts), len(ts))
			for _, tu := range ts {
				so.add(tu)
			}
			return s, so
		}
		for _, tu := range ts {
			if s.Add(tu) != so.add(tu) {
				t.Fatalf("other: Add(%v) disagrees with oracle", tu)
			}
		}
		return s, so
	}

	r, o := NewRelation(arity), newRelOracle()
	tableSizes := map[int]bool{}
	maxLen, keyOnlySteps := 0, 0
	const steps = 3000
	for step := 0; step < steps; step++ {
		// Alternate growth and shrink phases of 500 steps.
		growing := step/500%2 == 0
		addW, removeW := 12, 2
		if !growing {
			addW, removeW = 2, 12
		}
		op := rng.IntN(addW + removeW + 12)
		switch {
		case op < addW:
			switch rng.IntN(6) {
			case 0, 1:
				// The batch sink stores its rows key-only.
				ts := draw(o, 1+rng.IntN(6))
				r.appendBatch(batchCols(ts), len(ts))
				for _, tu := range ts {
					o.add(tu)
				}
			case 2:
				// A Delta stage filled by both sink methods, then
				// appended to r by Commit.
				full := NewInstance()
				full.SetRelationOwned("r", r)
				d := NewDelta(full)
				sink := d.Sink("r", arity)
				for n := 1 + rng.IntN(3); n > 0; n-- {
					ts := draw(o, 1+rng.IntN(4))
					if rng.IntN(2) == 0 {
						sink.appendBatch(batchCols(ts), len(ts))
						for _, tu := range ts {
							o.add(tu)
						}
						continue
					}
					for _, tu := range ts {
						if got, want := sink.Add(tu), o.add(tu); got != want {
							t.Fatalf("step %d: Delta sink Add(%v) = %v, oracle %v", step, tu, got, want)
						}
					}
				}
				d.Commit()
				if full.Relation("r") != r {
					t.Fatalf("step %d: Commit replaced the committed relation", step)
				}
			default:
				tu := tuple()
				if got, want := r.Add(tu), o.add(tu); got != want {
					t.Fatalf("step %d: Add(%v) = %v, oracle %v", step, tu, got, want)
				}
			}
		case op < addW+removeW:
			tu := present(o)
			if rng.IntN(4) == 0 {
				tu = tuple()
			}
			if got, want := r.Remove(tu), o.remove(tu); got != want {
				t.Fatalf("step %d: Remove(%v) = %v, oracle %v", step, tu, got, want)
			}
		default:
			switch op - addW - removeW {
			case 0, 1:
				tu := tuple()
				if r.Contains(tu) != o.has(tu) {
					t.Fatalf("step %d: Contains(%v) = %v", step, tu, !o.has(tu))
				}
			case 2:
				// Clone (before the snapshot decodes r, so a key-only
				// r is cloned as such), mutate the clone, and check
				// the original.
				c, co := r.Clone(), o.clone()
				before := snapshotOf(r)
				for n := 1 + rng.IntN(6); n > 0; n-- {
					if rng.IntN(2) == 0 {
						tu := present(co)
						if c.Remove(tu) != co.remove(tu) {
							t.Fatalf("step %d: clone Remove(%v) disagrees", step, tu)
						}
					} else {
						tu := tuple()
						if c.Add(tu) != co.add(tu) {
							t.Fatalf("step %d: clone Add(%v) disagrees", step, tu)
						}
					}
				}
				checkRelation(t, "clone", c, co)
				if !before.unchanged(r) {
					t.Fatalf("step %d: mutating a clone changed the original", step)
				}
				checkRelation(t, "original after clone mutation", r, o)
				if rng.IntN(2) == 0 {
					r, o = c, co // carry on with the clone
				}
			case 3:
				s, so := other(o)
				r.UnionWith(s)
				for _, tu := range so.order {
					o.add(tu)
				}
			case 4:
				s, so := other(o)
				want := newRelOracle()
				for _, tu := range o.order {
					if !so.has(tu) {
						want.add(tu)
					}
				}
				checkRelation(t, "Minus", r.Minus(s), want)
			case 5:
				s, so := other(o)
				want := newRelOracle()
				for _, tu := range o.order {
					if so.has(tu) {
						want.add(tu)
					}
				}
				checkRelation(t, "Intersect", r.Intersect(s), want)
			case 6:
				s, so := other(o)
				sub := true
				for _, tu := range o.order {
					sub = sub && so.has(tu)
				}
				if r.SubsetOf(s) != sub {
					t.Fatalf("step %d: SubsetOf = %v, oracle %v", step, !sub, sub)
				}
				sup := r.Clone()
				sup.UnionWith(s)
				if !r.SubsetOf(sup) || (sup.Len() > r.Len()) == sup.SubsetOf(r) {
					t.Fatalf("step %d: SubsetOf wrong against a superset", step)
				}
				if r.Equal(sup) != (sup.Len() == r.Len()) {
					t.Fatalf("step %d: Equal wrong against a superset", step)
				}
			case 7, 8:
				if arity == 0 {
					continue
				}
				col := rng.IntN(arity)
				v := Value("s" + strconv.Itoa(rng.IntN(universe)))
				want := map[string]bool{}
				for _, tu := range o.order {
					if tu[col] == v {
						want[oracleKey(tu)] = true
					}
				}
				got := r.Lookup(col, v)
				if len(got) != len(want) {
					t.Fatalf("step %d: Lookup(%d, %s) = %v, want %d tuples", step, col, v, got, len(want))
				}
				for _, tu := range got {
					if !want[oracleKey(tu)] {
						t.Fatalf("step %d: Lookup(%d, %s) returned %v", step, col, v, tu)
					}
				}
			case 9:
				d := NewDictShards(2)
				x := r.Rekey(d)
				checkRelation(t, "Rekey", x, o)
				if !x.Equal(r) || !r.Equal(x) {
					t.Fatalf("step %d: cross-dictionary Equal after Rekey", step)
				}
				back := x.Rekey(r.Dict())
				if !bytes.Equal(back.keys, r.keys) {
					t.Fatalf("step %d: Rekey round trip changed the key slab", step)
				}
				checkRelation(t, "Rekey round trip", back, o)
				if rng.IntN(2) == 0 {
					r = x.Rekey(r.Dict()) // carry on key-only
				}
			default:
				checkRelation(t, fmt.Sprintf("step %d", step), r, o)
			}
		}
		if r.Len() != len(o.order) {
			t.Fatalf("step %d: Len = %d, oracle %d", step, r.Len(), len(o.order))
		}
		if r.table == nil && r.Len() > linearMax {
			t.Fatalf("step %d: %d rows without a hash table", step, r.Len())
		}
		if r.table != nil && 2*r.Len() > len(r.table) {
			t.Fatalf("step %d: %d rows over a %d-slot table", step, r.Len(), len(r.table))
		}
		tableSizes[len(r.table)] = true
		maxLen = max(maxLen, r.Len())
		if !r.decoded() {
			keyOnlySteps++
		}
	}
	checkRelation(t, "final", r, o)
	if arity > 0 && (maxLen < 200 || len(tableSizes) < 5 || keyOnlySteps < 100) {
		t.Fatalf("sequence too tame: max %d rows, table sizes %v, %d steps with undecoded rows", maxLen, tableSizes, keyOnlySteps)
	}
}

// TestRelationHeaderSize pins the Relation header at 144 B, the top of
// its allocation size class: one more word moves every relation into
// the 160 B class. A prototype of the lazily decoded rows that kept
// the row count in a field of its own did that, and raised the
// allocation per job of the benchmark's gossip-fair and gossip-lossy
// workloads by 2.8%; the row count is derived from the key slab
// instead.
func TestRelationHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(Relation{}); got > 144 {
		t.Fatalf("Relation header is %d B, want at most 144", got)
	}
}

// TestSealedRelationParallelReads pins Seal's contract: once sealed, a
// relation serves every read accessor — Lookup, Tuples, Each,
// Contains, SubsetOf, Equal, Clone and the batch executor's columnar
// probes (hash and merge joins, scans, anti-probes, batch-append
// dedup against it) — from several goroutines at once without
// writing to itself. Run under -race it fails on any in-place memo,
// the decoding of key-only rows included: the relation is built once
// through Add and once, key-only, through the batch sink.
func TestSealedRelationParallelReads(t *testing.T) {
	for _, batch := range []bool{false, true} {
		t.Run(map[bool]string{false: "add", true: "batch"}[batch], func(t *testing.T) {
			testSealedRelationParallelReads(t, batch)
		})
	}
}

func testSealedRelationParallelReads(t *testing.T, batch bool) {
	const n = mergeMinRows + 300
	val := func(i int) Value { return Value("sealed" + strconv.Itoa(i)) }
	shared := NewRelation(2)
	if batch {
		cols := [][]uint32{make([]uint32, n), make([]uint32, n)}
		for i := 0; i < n; i++ {
			cols[0][i] = defaultDict.intern(val(i % 997))
			cols[1][i] = defaultDict.intern(val(i))
		}
		shared.appendBatch(cols, n)
		if shared.decoded() {
			t.Fatal("the batch sink decoded its rows")
		}
	} else {
		for i := 0; i < n; i++ {
			shared.Add(Tuple{val(i % 997), val(i)})
		}
	}
	shared.Seal()
	want := shared.Clone()
	wantLookup := len(shared.Lookup(0, val(5)))
	wantConst := len(shared.Lookup(0, val(3)))
	wantSorted := shared.Tuples()

	// A big batch of probe values for the merge join and batch-append
	// dedup, and a small one for the hash join.
	big := make([]Value, n)
	for i := range big {
		big[i] = val(i)
	}
	small := []Value{val(1), val(2), val(3), val(999999)}

	const readers = 4
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(format string, args ...any) { errs <- fmt.Errorf(format, args...) }
			if got := len(shared.Lookup(0, val(5))); got != wantLookup {
				fail("Lookup: %d tuples, want %d", got, wantLookup)
				return
			}
			if ts := shared.Tuples(); len(ts) != n || &ts[0] != &wantSorted[0] {
				fail("Tuples rebuilt or resized under a sealed relation")
				return
			}
			count := 0
			shared.Each(func(Tuple) bool { count++; return true })
			if count != n {
				fail("Each visited %d rows, want %d", count, n)
				return
			}
			if !shared.Contains(Tuple{val(7), val(7)}) || shared.Contains(Tuple{val(7), val(8)}) {
				fail("Contains wrong")
				return
			}
			if !shared.SubsetOf(want) || !want.SubsetOf(shared) || !shared.Equal(want) || !shared.Clone().Equal(shared) {
				fail("SubsetOf/Equal wrong")
				return
			}

			// Hash join on column 1, then merge join on column 1.
			for _, probe := range [][]Value{small, big} {
				b := testBatch(probe)
				op := JoinOp{Rel: shared, Arity: 2, ProbeCol: 1, ProbeReg: 0, Binds: []ColReg{{Col: 0, Reg: 1}}}
				b.cols = append(b.cols, nil)
				if !b.Join(op, 1<<30) {
					fail("Join exceeded the row bound")
					return
				}
				wantRows := 3 // val(999999) matches nothing
				if len(probe) == n {
					wantRows = n
				}
				if b.Len() != wantRows {
					fail("Join with %d probes: %d rows", len(probe), b.Len())
					return
				}
			}
			// Constant probe and full scan.
			b := testBatch(small)
			if !b.Join(JoinOp{Rel: shared, Arity: 2, ProbeCol: 0, ProbeReg: -1, ProbeVal: val(3)}, 1<<30) || b.Len() != len(small)*wantConst {
				fail("constant-probe Join: %d rows, want %d", b.Len(), len(small)*wantConst)
				return
			}
			b = testBatch(small[:1])
			if !b.Join(JoinOp{Rel: shared, Arity: 2, ProbeCol: -1, ProbeReg: -1}, 1<<30) || b.Len() != n {
				fail("scan Join: %d rows, want %d", b.Len(), n)
				return
			}
			// Anti-probe: rows (v, v) are stored only for v < 997.
			b = testBatch(big[:1000])
			b.FilterNotIn(shared, []BatchTerm{{Reg: 0}, {Reg: 0}})
			if b.Len() != 3 {
				fail("FilterNotIn kept %d rows, want 3", b.Len())
				return
			}
			// Batch append probing the sealed relation: every candidate
			// is already in the excluded relation.
			dst := NewRelation(2)
			cand := testBatch(nil, nil)
			cand.cols[0] = make([]uint32, n)
			cand.cols[1] = make([]uint32, n)
			for i := 0; i < n; i++ {
				cand.cols[0][i] = defaultDict.intern(val(i % 997))
				cand.cols[1][i] = defaultDict.intern(val(i))
			}
			batchAppend(dst, shared, cand.cols, n)
			if dst.Len() != 0 {
				fail("batch append against the sealed relation kept %d rows", dst.Len())
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkRelation measures the row store's hot operations at sizes
// below the linear-scan threshold, just past it, and large, including
// both dictionary crossings (Rekey, cross-dictionary Equal). Run with
// -benchmem: allocations per op are part of the point.
func BenchmarkRelation(b *testing.B) {
	for _, n := range []int{2, 16, 10000} {
		tuples := make([]Tuple, n)
		for i := range tuples {
			tuples[i] = Tuple{Value("bench" + strconv.Itoa(i)), Value("bench" + strconv.Itoa(i%7))}
		}
		full := NewRelation(2)
		for _, tu := range tuples {
			full.Add(tu)
		}
		half := NewRelation(2)
		for _, tu := range tuples[:n/2] {
			half.Add(tu)
		}
		b.Run(fmt.Sprintf("Add/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				r := NewRelation(2)
				for _, tu := range tuples {
					r.Add(tu)
				}
			}
		})
		b.Run(fmt.Sprintf("Clone/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				full.Clone()
			}
		})
		b.Run(fmt.Sprintf("Each/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				full.Each(func(Tuple) bool { return true })
			}
		})
		// BatchAppend stores the relation through the batch sink, as
		// keys only; EachAfterBatch adds the first Each, which decodes
		// every row.
		cols := [][]uint32{make([]uint32, n), make([]uint32, n)}
		for i := 0; i < n; i++ {
			cols[0][i], cols[1][i] = full.rowID(i, 0), full.rowID(i, 1)
		}
		b.Run(fmt.Sprintf("BatchAppend/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				NewRelation(2).appendBatch(cols, n)
			}
		})
		b.Run(fmt.Sprintf("EachAfterBatch/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				r := NewRelation(2)
				r.appendBatch(cols, n)
				r.Each(func(Tuple) bool { return true })
			}
		})
		b.Run(fmt.Sprintf("SubsetOf/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				half.SubsetOf(full)
			}
		})
		b.Run(fmt.Sprintf("UnionWith/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				r := half.Clone()
				r.UnionWith(full)
			}
		})
		// Rekey reuses one destination, so after the first op it times
		// the intern-hit path; RekeyFresh interns every value anew
		// (the fresh dictionary's construction included).
		b.Run(fmt.Sprintf("Rekey/n=%d", n), func(b *testing.B) {
			d := NewDict()
			for b.Loop() {
				full.Rekey(d)
			}
		})
		b.Run(fmt.Sprintf("RekeyFresh/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				full.Rekey(NewDict())
			}
		})
		b.Run(fmt.Sprintf("EqualCrossDict/n=%d", n), func(b *testing.B) {
			other := full.Rekey(NewDict())
			for b.Loop() {
				full.Equal(other)
			}
		})
	}
}
