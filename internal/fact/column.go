package fact

import "encoding/binary"

// This file is the columnar half of the kernel: a per-relation view
// that transposes the row-major key slab (see Relation) into
// per-column []uint32 ID vectors, with lazily built sorted runs
// (radix-ordered permutations) and ID→row hash indexes. The batch
// executor (batch.go and internal/plan's columnar pipeline) joins over
// these vectors instead of walking the stored tuples one at a time, so
// it never makes a relation decode its tuples.
//
// The view is memoized on the Relation and maintained incrementally:
// every append (addKeyed, the batch sink, Delta.Commit) extends each
// column with the new rows' IDs, and the runs and indexes carry
// watermarks so they extend (indexes) or rebuild (runs) only over the
// appended tail on next access. Remove drops the view, exactly like
// the per-column tuple indexes — deletion is rare in the paper's
// inflationary transducers. The view serves the batch join alone;
// output dedup probes the row store (sink.go).

// colview is the columnar decoding of a relation: col[c][row] is the
// interned ID at column c of the relation's row-th stored tuple, so
// the view's rows are the slab's rows in the same order. All consumers
// treat the relation as a set, so no meaning attaches to that order.
type colview struct {
	n   int
	col [][]uint32

	// idx[c], when non-nil, maps an ID to the rows holding it at
	// column c; idxN[c] is the watermark of rows already indexed, so
	// appended tails extend the map incrementally.
	idx  []map[uint32][]int32
	idxN []int

	// run[c], when non-nil, is a permutation of [0,runN[c]) ordering
	// rows by the ID at column c; stale runs (runN != n) are rebuilt by
	// one radix sort on next access.
	run  [][]int32
	runN []int
}

// columns returns (building on first access) the columnar view of the
// relation. Like the tuple indexes, the view is memoized in place and
// maintained by addKeyed; Remove invalidates it.
func (r *Relation) columns() *colview {
	if r.cview == nil {
		n := r.Len()
		cv := &colview{n: n, col: make([][]uint32, r.arity)}
		for c := range cv.col {
			col := make([]uint32, n)
			for i := range col {
				col[i] = r.rowID(i, c)
			}
			cv.col[c] = col
		}
		r.cview = cv
	}
	return r.cview
}

// appendRow extends every column with the IDs of a newly stored key.
// Runs and indexes go stale behind their watermarks and catch up on
// next access.
func (cv *colview) appendRow(k []byte) {
	for c := range cv.col {
		cv.col[c] = append(cv.col[c], binary.BigEndian.Uint32(k[4*c:]))
	}
	cv.n++
}

// index returns the ID→rows hash index of column c, extending it over
// any rows appended since the last access.
func (cv *colview) index(c int) map[uint32][]int32 {
	if cv.idx == nil {
		cv.idx = make([]map[uint32][]int32, len(cv.col))
		cv.idxN = make([]int, len(cv.col))
	}
	m := cv.idx[c]
	if m == nil {
		m = make(map[uint32][]int32, cv.n)
		cv.idx[c] = m
		cv.idxN[c] = 0
	}
	// A caught-up index is returned without writing the watermark, so
	// a sealed relation's view stays read-only under concurrent probes.
	if cv.idxN[c] < cv.n {
		keys := cv.col[c]
		for i := cv.idxN[c]; i < cv.n; i++ {
			m[keys[i]] = append(m[keys[i]], int32(i))
		}
		cv.idxN[c] = cv.n
	}
	return m
}

// sortedRun returns the row permutation ordering column c by ID,
// rebuilding it by radix sort when rows were appended since the last
// access. Equal IDs form contiguous groups — the runs a merge join
// walks.
func (cv *colview) sortedRun(c int) []int32 {
	if cv.run == nil {
		cv.run = make([][]int32, len(cv.col))
		cv.runN = make([]int, len(cv.col))
	}
	if cv.run[c] == nil || cv.runN[c] != cv.n {
		cv.run[c] = radixPerm(cv.col[c][:cv.n])
		cv.runN[c] = cv.n
	}
	return cv.run[c]
}

// radixPerm returns a permutation of [0,len(keys)) ordering keys
// ascending: an LSD counting sort over two 16-bit digits, O(n) with no
// comparisons. The second pass is skipped when every key fits in the
// low digit (interning dictionaries under 2^16 values — the common
// case for the paper's workloads).
func radixPerm(keys []uint32) []int32 {
	n := len(keys)
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if n < 2 {
		return perm
	}
	var maxKey uint32
	for _, k := range keys {
		if k > maxKey {
			maxKey = k
		}
	}
	tmp := make([]int32, n)
	count := make([]int32, 1<<16)
	for shift := 0; shift < 32; shift += 16 {
		if shift > 0 && maxKey>>shift == 0 {
			break
		}
		if shift > 0 {
			for i := range count {
				count[i] = 0
			}
		}
		for _, p := range perm {
			count[(keys[p]>>shift)&0xffff]++
		}
		sum := int32(0)
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, p := range perm {
			d := (keys[p] >> shift) & 0xffff
			tmp[count[d]] = p
			count[d]++
		}
		perm, tmp = tmp, perm
	}
	return perm
}
