package fact

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternParallelDenseStable hammers the interning dictionary from
// many goroutines over an overlapping value set and checks the
// contract the parallel runtime depends on: every value gets exactly
// one ID, IDs stay stable across re-interning, and the dictionary
// grows by exactly the distinct-value count — with sharding, density
// holds per shard (no holes in any shard's slot sequence), not over
// the global ID space; see TestDictShardSlotsDense.
func TestInternParallelDenseStable(t *testing.T) {
	const goroutines = 8
	const values = 500

	vals := make([]Value, values)
	for i := range vals {
		vals[i] = Value(fmt.Sprintf("internpar-%d", i))
	}
	// A fresh dictionary, so the growth count holds on every repeat
	// of the test in one process.
	d := NewDict()

	ids := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]uint32, values)
			// Each goroutine walks the values at a different stride
			// (coprime with the value count) so first-sight insertions
			// race from every side while still covering every value.
			strides := []int{1, 3, 7, 9, 11, 13, 17, 19}
			for i := 0; i < values; i++ {
				j := (i*strides[g%len(strides)] + g) % values
				got[j] = d.Intern(vals[j])
			}
			ids[g] = got
		}(g)
	}
	wg.Wait()

	if got := d.Len(); got != values {
		t.Fatalf("dictionary grew by %d values, want %d", got, values)
	}
	seen := map[uint32]bool{}
	for j := range vals {
		id := ids[0][j]
		for g := 1; g < goroutines; g++ {
			if ids[g][j] != id {
				t.Fatalf("value %s got IDs %d and %d from different goroutines", vals[j], id, ids[g][j])
			}
		}
		if again := d.Intern(vals[j]); again != id {
			t.Fatalf("re-interning %s moved ID %d -> %d", vals[j], id, again)
		}
		if got := d.value(id); got != vals[j] {
			t.Fatalf("ID %d decodes to %s, want %s", id, got, vals[j])
		}
		if seen[id] {
			t.Fatalf("ID %d assigned twice", id)
		}
		seen[id] = true
	}
	// Round-trip through the ID→value direction from many goroutines.
	wg = sync.WaitGroup{}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j, v := range vals {
				if got := d.value(ids[0][j]); got != v {
					t.Errorf("d.value(%d) = %s, want %s", ids[0][j], got, v)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestInternLookupMissIsStable checks that lookupID misses do not
// perturb the dictionary.
func TestInternLookupMissIsStable(t *testing.T) {
	before := InternedValues()
	if _, ok := defaultDict.lookup(Value("never-interned-value-xyzzy")); ok {
		t.Fatal("lookup of a never-interned value reported a hit")
	}
	if got := InternedValues(); got != before {
		t.Fatalf("lookup miss grew the dictionary: %d -> %d", before, got)
	}
}
