package fact

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"sync"
	"testing"
)

// TestRelationVersionOracle runs random operations on the versions of
// Extend chains against relOracle, for arities 0–3. Versions grow from
// the tip (in place) and from older versions (a copy); Add, UnionWith
// and Remove hit older versions and tips; Seal is followed by Extend;
// and the batch sink appends key-only rows into a tip. After every
// step each live version must still read as its own oracle: Len,
// Contains, Lookup on every column, Each in row order, Tuples,
// SubsetOf and Equal. A version's growth or mutation that leaked into
// another version of its store shows up as a mismatch.
func TestRelationVersionOracle(t *testing.T) {
	for arity := 0; arity <= 3; arity++ {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("arity=%d/seed=%d", arity, seed), func(t *testing.T) {
				testRelationVersionOracle(t, arity, seed)
			})
		}
	}
}

// version is one live relation of the version-chain oracle.
type version struct {
	r *Relation
	o *relOracle
}

func testRelationVersionOracle(t *testing.T, arity int, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 100+uint64(arity)))
	universe := map[int]int{0: 1, 1: 300, 2: 18, 3: 7}[arity]
	value := func() Value { return Value("v" + strconv.Itoa(rng.IntN(universe))) }
	tuple := func() Tuple {
		tu := make(Tuple, arity)
		for i := range tu {
			tu[i] = value()
		}
		return tu
	}
	// delta builds a small relation of random tuples, about a third of
	// them drawn from o, through Add or key-only through the batch sink.
	delta := func(o *relOracle) (*Relation, []Tuple) {
		ts := make([]Tuple, 1+rng.IntN(6))
		for i := range ts {
			if len(o.order) > 0 && rng.IntN(3) == 0 {
				ts[i] = o.order[rng.IntN(len(o.order))]
			} else {
				ts[i] = tuple()
			}
		}
		d := NewRelation(arity)
		if rng.IntN(2) == 0 || arity == 0 {
			for _, tu := range ts {
				d.Add(tu)
			}
		} else {
			d.appendBatch(internCols(ts, arity), len(ts))
		}
		return d, ts
	}
	check := func(step int, vs []version) {
		t.Helper()
		for j, v := range vs {
			what := fmt.Sprintf("step %d version %d", step, j)
			checkRelation(t, what, v.r, v.o)
			for c := 0; c < arity; c++ {
				for k := 0; k < 3; k++ {
					val := value()
					var want []Tuple
					for _, tu := range v.o.order {
						if tu[c] == val {
							want = append(want, tu)
						}
					}
					got := v.r.Lookup(c, val)
					if len(got) != len(want) {
						t.Fatalf("%s: Lookup(%d, %s) = %v, want %v", what, c, val, got, want)
					}
					for i := range got {
						if !got[i].Equal(want[i]) {
							t.Fatalf("%s: Lookup(%d, %s) = %v, want %v in row order", what, c, val, got, want)
						}
					}
				}
			}
			w := vs[rng.IntN(len(vs))]
			sub := true
			for _, tu := range v.o.order {
				sub = sub && w.o.has(tu)
			}
			if v.r.SubsetOf(w.r) != sub {
				t.Fatalf("%s: SubsetOf = %v, oracle %v", what, !sub, sub)
			}
			if eq := sub && len(v.o.order) == len(w.o.order); v.r.Equal(w.r) != eq {
				t.Fatalf("%s: Equal = %v, oracle %v", what, !eq, eq)
			}
		}
	}

	vs := []version{{NewRelation(arity), newRelOracle()}}
	shared, copied := 0, 0
	for step := 0; step < 600; step++ {
		i := rng.IntN(len(vs))
		if rng.IntN(2) == 0 {
			i = len(vs) - 1 // favour the newest, mostly a tip
		}
		v := vs[i]
		switch op := rng.IntN(10); {
		case op < 5:
			d, ts := delta(v.o)
			tip := v.r.st != nil && v.r.st.versioned && !v.r.st.sealed && v.r.Len() == v.r.st.n
			nv := version{v.r.Extend(d), v.o.clone()}
			for _, tu := range ts {
				nv.o.add(tu)
			}
			switch {
			case len(nv.o.order) == len(v.o.order):
				if nv.r != v.r {
					t.Fatalf("step %d: Extend adding nothing returned a new relation", step)
				}
			case tip && nv.r.st == v.r.st:
				shared++
			case !tip && nv.r.st != v.r.st:
				copied++
			default:
				t.Fatalf("step %d: Extend of a tip=%v version shared=%v its store", step, tip, nv.r.st == v.r.st)
			}
			if nv.r != v.r {
				vs = append(vs, nv)
			}
		case op == 5:
			tu := tuple()
			if v.r.Add(tu) != v.o.add(tu) {
				t.Fatalf("step %d: Add(%v) disagrees with oracle", step, tu)
			}
		case op == 6:
			d, ts := delta(v.o)
			v.r.UnionWith(d)
			for _, tu := range ts {
				v.o.add(tu)
			}
		case op == 7:
			if len(v.o.order) == 0 {
				continue
			}
			tu := v.o.order[rng.IntN(len(v.o.order))]
			if !v.r.Remove(tu) || !v.o.remove(tu) {
				t.Fatalf("step %d: Remove(%v) of a stored tuple failed", step, tu)
			}
		case op == 8:
			v.r.Seal()
			d, ts := delta(v.o)
			nv := version{v.r.Extend(d), v.o.clone()}
			for _, tu := range ts {
				nv.o.add(tu)
			}
			if nv.r != v.r {
				if nv.r.st == v.r.st {
					t.Fatalf("step %d: Extend of a sealed relation grew its store in place", step)
				}
				vs = append(vs, nv)
			}
		default:
			// The batch sink appends key-only rows into a version.
			if arity == 0 {
				continue
			}
			_, ts := delta(v.o)
			v.r.appendBatch(internCols(ts, arity), len(ts))
			for _, tu := range ts {
				v.o.add(tu)
			}
		}
		if len(vs) > 8 {
			j := rng.IntN(len(vs) - 1)
			vs = append(vs[:j], vs[j+1:]...)
		}
		check(step, vs)
	}
	if arity > 0 && (shared < 50 || copied < 10) {
		t.Fatalf("sequence too tame: %d Extends shared a store, %d copied", shared, copied)
	}
}

// internCols interns ts into the ID columns a batch executor hands a
// sink.
func internCols(ts []Tuple, arity int) [][]uint32 {
	cols := make([][]uint32, arity)
	for c := range cols {
		cols[c] = make([]uint32, len(ts))
		for i, tu := range ts {
			cols[c][i] = defaultDict.intern(tu[c])
		}
	}
	return cols
}

// TestExtendChainsParallel pins the one-goroutine-per-chain rule under
// -race: goroutines grow chains of their own from one sealed relation
// and from clones of one instance's relation, reading every version
// they make and the shared roots as they go. A sealed root is never
// grown in place, and each clone is a store of its own, so no two
// goroutines write one store.
func TestExtendChainsParallel(t *testing.T) {
	val := func(i int) Value { return Value("chain" + strconv.Itoa(i)) }
	root := NewRelation(2)
	inst := NewInstance()
	for i := 0; i < 40; i++ {
		root.Add(Tuple{val(i % 7), val(i)})
		inst.AddFact(NewFact("R", val(i%7), val(i)))
	}
	root.Seal()
	const goroutines, steps = 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, 2*goroutines)
	for g := 0; g < goroutines; g++ {
		mine := inst.Clone().Relation("R")
		wg.Add(1)
		go func() {
			defer wg.Done()
			chains := []*Relation{root, mine}
			for i := 0; i < steps; i++ {
				d := NewRelation(2)
				d.Add(Tuple{val(i % 7), val(1000*(g+1) + i)})
				for c, v := range chains {
					nv := v.Extend(d)
					if nv.Len() != v.Len()+1 || !nv.Contains(Tuple{val(i % 7), val(1000*(g+1) + i)}) {
						errs <- fmt.Errorf("goroutine %d chain %d step %d: Extend lost its row", g, c, i)
						return
					}
					if got, want := len(nv.Lookup(0, val(i%7))), len(v.Lookup(0, val(i%7)))+1; got != want {
						errs <- fmt.Errorf("goroutine %d chain %d step %d: Lookup has %d rows, want %d", g, c, i, got, want)
						return
					}
					chains[c] = nv
				}
				if root.Len() != 40 || len(root.Lookup(0, val(3))) != 6 {
					errs <- fmt.Errorf("goroutine %d step %d: the sealed root changed", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
