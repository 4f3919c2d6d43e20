package fact

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDictParallelInternPerShardCount hammers a fresh Dict at every
// shard count of interest — 1 (the single-lock baseline), 2, 4 and
// the default 16 — from 8 goroutines over an overlapping value set,
// and checks the dictionary contract: every value gets exactly one
// stable ID, the dictionary grows by exactly the distinct-value
// count, every ID decodes back to its value, and each shard's slot
// sequence is dense (IDs interleave shards, so density is a per-shard
// property).
func TestDictParallelInternPerShardCount(t *testing.T) {
	const goroutines = 8
	// Prime, so every goroutine's stride is coprime with the value
	// count and each one covers the whole set.
	const values = 601
	for _, shards := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := NewDictShards(shards)
			vals := make([]Value, values)
			for i := range vals {
				vals[i] = Value(fmt.Sprintf("dictpar-%d-%d", shards, i))
			}
			ids := make([][]uint32, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					got := make([]uint32, values)
					strides := []int{1, 3, 7, 11, 13, 17, 19, 23}
					for i := 0; i < values; i++ {
						j := (i*strides[g] + g) % values
						got[j] = d.Intern(vals[j])
					}
					ids[g] = got
				}(g)
			}
			wg.Wait()

			if got := d.Len(); got != values {
				t.Fatalf("Len() = %d, want %d", got, values)
			}
			seen := map[uint32]bool{}
			perShard := map[uint32][]uint32{} // shard index -> slots
			mask := uint32(1)<<d.shardBits - 1
			for j, v := range vals {
				id := ids[0][j]
				for g := 1; g < goroutines; g++ {
					if ids[g][j] != id {
						t.Fatalf("value %s got IDs %d and %d from different goroutines", v, id, ids[g][j])
					}
				}
				if again := d.Intern(v); again != id {
					t.Fatalf("re-interning %s moved ID %d -> %d", v, id, again)
				}
				if got := d.value(id); got != v {
					t.Fatalf("ID %d decodes to %s, want %s", id, got, v)
				}
				if lid, ok := d.lookup(v); !ok || lid != id {
					t.Fatalf("lookup(%s) = %d,%v, want %d,true", v, lid, ok, id)
				}
				if seen[id] {
					t.Fatalf("ID %d assigned twice", id)
				}
				seen[id] = true
				si := id & mask
				perShard[si] = append(perShard[si], id>>d.shardBits)
			}
			for si, slots := range perShard {
				present := make([]bool, len(slots))
				for _, s := range slots {
					if int(s) >= len(slots) {
						t.Fatalf("shard %d: slot %d outside dense range [0,%d)", si, s, len(slots))
					}
					present[s] = true
				}
				for s, ok := range present {
					if !ok {
						t.Fatalf("shard %d: slot %d never assigned (hole)", si, s)
					}
				}
			}
		})
	}
}

// TestDictIsolation: values interned in a per-run dictionary do not
// touch the process default, and identical values get independent IDs
// in independent dictionaries.
func TestDictIsolation(t *testing.T) {
	before := InternedValues()
	d := NewDict()
	for i := 0; i < 100; i++ {
		d.Intern(Value(fmt.Sprintf("isolated-%d", i)))
	}
	if got := InternedValues(); got != before {
		t.Fatalf("per-run interning grew the default dictionary: %d -> %d", before, got)
	}
	if d.Len() != 100 {
		t.Fatalf("per-run dict Len() = %d, want 100", d.Len())
	}
}

// mustPanicRekey runs f and checks it panics with the cross-dict
// message naming Rekey.
func mustPanicRekey(t *testing.T, op string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s across dictionaries did not panic", op)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "Rekey") || !strings.Contains(msg, op) {
			t.Fatalf("%s panic = %v, want message naming the op and Rekey", op, r)
		}
	}()
	f()
}

// TestCrossDictMixingPanics: every mutating set operation over
// relations or instances of different dictionaries is a checked
// error whose message names the Rekey escape hatch.
func TestCrossDictMixingPanics(t *testing.T) {
	da, db := NewDict(), NewDict()
	ra := da.NewRelation(1)
	ra.Add(Tuple{"x"})
	rb := db.NewRelation(1)
	rb.Add(Tuple{"y"})

	mustPanicRekey(t, "UnionWith", func() { ra.Clone().UnionWith(rb) })
	mustPanicRekey(t, "Minus", func() { ra.Minus(rb) })
	mustPanicRekey(t, "Intersect", func() { ra.Intersect(rb) })

	ia := da.NewInstance()
	ib := db.NewInstance()
	ib.AddFact(Fact{Rel: "R", Args: Tuple{"y"}})
	mustPanicRekey(t, "UnionWith", func() { ia.Clone().UnionWith(ib) })
	mustPanicRekey(t, "SetRelation", func() { ia.Clone().SetRelation("R", rb) })
}

// TestCrossDictReadsAreSafe: Equal and SubsetOf compare by value
// across dictionaries — the read path the per-run-dict differential
// harnesses rely on to compare outputs against default-dict runs.
func TestCrossDictReadsAreSafe(t *testing.T) {
	da, db := NewDict(), NewDict()
	ra, rb := da.NewRelation(2), db.NewRelation(2)
	// Interleave different insertion orders so the ID assignments
	// genuinely differ between the two dictionaries.
	ra.Add(Tuple{"p", "q"})
	ra.Add(Tuple{"r", "s"})
	rb.Add(Tuple{"r", "s"})
	rb.Add(Tuple{"p", "q"})
	if !ra.Equal(rb) || !rb.Equal(ra) {
		t.Fatal("equal relations over different dictionaries compared unequal")
	}
	rb.Add(Tuple{"t", "u"})
	if ra.Equal(rb) {
		t.Fatal("unequal relations compared equal across dictionaries")
	}
	if !ra.SubsetOf(rb) {
		t.Fatal("subset not detected across dictionaries")
	}
	if rb.SubsetOf(ra) {
		t.Fatal("superset misreported as subset across dictionaries")
	}
}

// TestRekeyRoundTrip: re-encoding a relation (and an instance) into
// another dictionary and back yields bit-identical contents — same
// tuples, same packed keys in the original dictionary — because
// interning is idempotent.
func TestRekeyRoundTrip(t *testing.T) {
	da, db := NewDict(), NewDict()
	r := da.NewRelation(2)
	r.Add(Tuple{"a", "b"})
	r.Add(Tuple{"b", "c"})
	r.Add(Tuple{"c", "a"})

	over := r.Rekey(db)
	if over.Dict() != db {
		t.Fatal("Rekey result not owned by the destination dictionary")
	}
	if !over.Equal(r) {
		t.Fatalf("Rekey changed contents: %v -> %v", r, over)
	}
	back := over.Rekey(da)
	if back.Dict() != da {
		t.Fatal("round-trip did not land in the original dictionary")
	}
	if !back.Equal(r) {
		t.Fatalf("round trip changed contents: %v -> %v", r, back)
	}
	// Bit-identical: same packed key set in the original dictionary.
	var scratch [64]byte
	r.Each(func(tu Tuple) bool {
		k1 := string(da.packTuple(scratch[:0], tu))
		if !back.Contains(tu) {
			t.Fatalf("round trip lost %v", tu)
		}
		k2, ok := da.packTupleLookup(scratch[:0], tu)
		if !ok || string(k2) != k1 {
			t.Fatalf("round trip moved the packed key of %v", tu)
		}
		return true
	})

	// Same-dict Rekey degenerates to Clone.
	same := r.Rekey(da)
	if same.Dict() != da || !same.Equal(r) {
		t.Fatal("same-dict Rekey is not a clone")
	}

	i := da.NewInstance()
	i.AddFact(Fact{Rel: "R", Args: Tuple{"a", "b"}})
	i.AddFact(Fact{Rel: "S", Args: Tuple{"z"}})
	iover := i.Rekey(db)
	if iover.Dict() != db || !iover.Equal(i) {
		t.Fatalf("instance Rekey changed contents: %v -> %v", i, iover)
	}
	iback := iover.Rekey(da)
	if iback.Dict() != da || !iback.Equal(i) {
		t.Fatalf("instance round trip changed contents: %v -> %v", i, iback)
	}
}

// TestDictReclaim: dropping every handle on a per-run dictionary makes
// it collectable — the memory-lifetime half of the tentpole. The proof
// is a finalizer: after the last reference dies, GC must run it. The
// process-default dictionary, by contrast, must retain everything (its
// size is observable forever through InternedValues).
func TestDictReclaim(t *testing.T) {
	var finalized atomic.Bool
	func() {
		d := NewDict()
		r := d.NewRelation(1)
		for i := 0; i < 10_000; i++ {
			r.Add(Tuple{Value(fmt.Sprintf("reclaim-%d", i))})
		}
		if d.Len() != 10_000 {
			t.Fatalf("per-run dict holds %d values, want 10000", d.Len())
		}
		runtime.SetFinalizer(d, func(*Dict) { finalized.Store(true) })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !finalized.Load() {
		if time.Now().After(deadline) {
			t.Fatal("per-run dictionary not collected: something retains the dropped run's universe")
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}
