package fact

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strconv"
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

// TestDictIDAssignmentModel pins ID assignment to its specification:
// the low bits of a value's 32-bit FNV-1a hash pick its shard, and a
// shard hands out slots in first-seen order, so ID = slot<<shardBits |
// shard. A fixed shuffled sequence with repeats is interned at three
// shard counts and every ID is checked against a model built on the
// standard library's FNV-1a. Every golden and trajectory that depends
// on IDs stays put as long as this holds.
func TestDictIDAssignmentModel(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	seq := make([]Value, 5000)
	for i := range seq {
		seq[i] = Value(fmt.Sprintf("model-%d", rng.Intn(3000)))
	}
	for _, shards := range []int{1, 2, 16} {
		d := NewDictShards(shards)
		next := make([]uint32, shards)
		want := map[Value]uint32{}
		for i, v := range seq {
			id, seen := want[v]
			if !seen {
				h := fnv.New32a()
				h.Write([]byte(v))
				si := h.Sum32() & uint32(shards-1)
				id = next[si]<<d.shardBits | si
				next[si]++
				want[v] = id
			}
			if got := d.Intern(v); got != id {
				t.Fatalf("shards=%d: intern #%d of %s = %d, model says %d", shards, i, v, got, id)
			}
		}
		if d.Len() != len(want) {
			t.Fatalf("shards=%d: Len() = %d, want %d", shards, d.Len(), len(want))
		}
		for v, id := range want {
			if got, ok := d.lookup(v); !ok || got != id {
				t.Fatalf("shards=%d: lookup(%s) = %d,%v, want %d", shards, v, got, ok, id)
			}
			if got := d.value(id); got != v {
				t.Fatalf("shards=%d: value(%d) = %s, want %s", shards, id, got, v)
			}
		}
	}
}

// TestDictTagCollision interns two distinct values with equal 32-bit
// FNV-1a hashes: they share a shard, a table tag and a home entry, so
// only the string comparison tells them apart.
func TestDictTagCollision(t *testing.T) {
	var a, b Value
	seen := map[uint32]Value{}
	for i := 0; a == ""; i++ {
		if i == 1_000_000 {
			t.Fatal("no FNV-1a collision among 10^6 candidates")
		}
		v := Value("tag-" + strconv.Itoa(i))
		h := hash(v)
		if w, ok := seen[h]; ok {
			a, b = w, v
		}
		seen[h] = v
	}
	for _, shards := range []int{1, 16} {
		d := NewDictShards(shards)
		ia := d.Intern(a)
		if _, ok := d.lookup(b); ok {
			t.Fatalf("shards=%d: %s found after interning only its collision partner %s", shards, b, a)
		}
		ib := d.Intern(b)
		if ia == ib {
			t.Fatalf("shards=%d: colliding values %s and %s share ID %d", shards, a, b, ia)
		}
		for _, c := range []struct {
			v  Value
			id uint32
		}{{a, ia}, {b, ib}} {
			if got, ok := d.lookup(c.v); !ok || got != c.id {
				t.Fatalf("shards=%d: lookup(%s) = %d,%v, want %d", shards, c.v, got, ok, c.id)
			}
			if got := d.value(c.id); got != c.v {
				t.Fatalf("shards=%d: value(%d) = %s, want %s", shards, c.id, got, c.v)
			}
			if got := d.Intern(c.v); got != c.id {
				t.Fatalf("shards=%d: re-interning %s moved ID %d -> %d", shards, c.v, c.id, got)
			}
		}
	}
}

// TestDictReadsDuringGrowth runs lock-free readers against one writer
// that interns 10^5 values through many doublings of each shard's
// table and value array. A value whose Intern returned before a
// reader's lookup started must be found, with its ID, and its ID must
// resolve back to it: no reader may see a generation that lacks a
// published value.
func TestDictReadsDuringGrowth(t *testing.T) {
	const values = 100_000
	const readers = 3
	vals := make([]Value, values)
	for i := range vals {
		vals[i] = Value("grow-" + strconv.Itoa(i))
	}
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := NewDictShards(shards)
			ids := make([]uint32, values)
			var done atomic.Int64 // ids[:done] are interned and recorded
			var wg sync.WaitGroup
			errs := make(chan string, readers)
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(r)))
					for {
						k := done.Load()
						if k == values {
							return
						}
						if k == 0 {
							runtime.Gosched()
							continue
						}
						// The value being interned may or may not be
						// found yet, but a hit must resolve back to it.
						if id, ok := d.lookup(vals[k]); ok && d.value(id) != vals[k] {
							errs <- fmt.Sprintf("lookup(%s) hit ID %d before its Intern returned, which resolves to %q", vals[k], id, d.value(id))
							return
						}
						// The newest value and a random older one.
						for _, j := range []int64{k - 1, rng.Int63n(k)} {
							if id, ok := d.lookup(vals[j]); !ok || id != ids[j] {
								errs <- fmt.Sprintf("lookup(%s) = %d,%v after its Intern returned %d", vals[j], id, ok, ids[j])
								return
							}
							if v := d.value(ids[j]); v != vals[j] {
								errs <- fmt.Sprintf("value(%d) = %q, want %s", ids[j], v, vals[j])
								return
							}
						}
					}
				}(r)
			}
			for i, v := range vals {
				ids[i] = d.Intern(v)
				done.Store(int64(i + 1))
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if d.Len() != values {
				t.Fatalf("Len() = %d, want %d", d.Len(), values)
			}
		})
	}
}
