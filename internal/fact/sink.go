package fact

// This file is the columnar output half of the batch pipeline: a Sink
// abstraction over "where derived tuples go" (a Relation, or a Delta
// staging area) and the batch-append machinery behind it. The scalar
// executors emit one tuple at a time through Add; the batch executor
// hands over whole ID column slabs through appendBatch, which picks a
// dedup regime by size. Batches that could meet a large dedup target
// take one lexicographic row sort, drop within-batch duplicates
// adjacently, merge against the destination's sorted key run, and
// write packed keys straight into the destination's key slab ONLY for
// the genuinely new rows. Everything else packs each row into one
// reused scratch key and probes the destination's row store. That
// lifts the recursive-closure rounds that were bounded by key-by-key
// re-staging without taxing full-output joins (pairs-class) with a
// sort they cannot amortize.

import (
	"encoding/binary"
	"slices"
)

// Sink is a destination for derived tuples. Relation is the plain
// sink; Delta.Sink stages against a growing instance without
// materializing an intermediate relation. The unexported method is
// deliberate: sinks traffic in raw interned IDs and packed keys, so
// only package fact can implement one — the same confinement the
// nodict linter enforces for the dictionary itself.
type Sink interface {
	// Add inserts one tuple, reporting whether it was new. The sink
	// stores a private copy; callers may reuse t.
	Add(t Tuple) bool

	// appendBatch appends rows [0,n) of the given ID columns (one
	// column per output position), deduplicating against the sink's
	// existing contents. Columns must have at least n entries.
	appendBatch(cols [][]uint32, n int)

	// sinkDict returns the interning dictionary the sink's IDs decode
	// in; batch executors derive their ID space from it (NewBatchFor)
	// and verify it before handing over raw columns.
	sinkDict() *Dict
}

// dedupMergeMin and dedupMergeRatio gate the merge dedup against a
// relation's lexicographic key run: both sides must reach
// dedupMergeMin rows, and the relation may be at most dedupMergeRatio
// times larger than the candidate set — the merge walks the whole
// run, so probing wins when candidates are few against a huge
// relation (a late semi-naive round's delta against Full).
const (
	dedupMergeMin   = 1 << 13
	dedupMergeRatio = 8
)

// appendBatch implements Sink for Relation.
func (r *Relation) appendBatch(cols [][]uint32, n int) {
	batchAppend(r, nil, cols, n)
}

// sinkDict implements Sink for Relation.
func (r *Relation) sinkDict() *Dict { return r.dict }

// sinkDict implements Sink for deltaSink.
func (s deltaSink) sinkDict() *Dict { return s.d.Full.dict }

// batchAppend appends rows [0,n) of cols into dst, skipping rows
// already present in dst or in exclude (when non-nil) — the columnar
// counterpart of an Add loop. Within-batch duplicates fall to one
// lexicographic row sort; presence against each relation is tested by
// a sorted-run merge or allocation-free row-store probes
// (dropPresent); and packed keys plus output tuples are materialized
// only for the rows that survive.
func batchAppend(dst *Relation, exclude *Relation, cols [][]uint32, n int) {
	if n == 0 {
		return
	}
	if exclude != nil {
		mustShareDict(dst.dict, exclude.dict, "batch append")
	}
	w := dst.arity
	if len(cols) != w {
		panic("fact: batch append with mismatched column count")
	}
	if w == 0 {
		// The zero-width relation holds at most the empty tuple.
		if exclude == nil || exclude.Len() == 0 {
			dst.Add(Tuple{})
		}
		return
	}
	// The sorted regime earns its row sort two ways: the merge dedup
	// (no hashing against a large destination) and survivor-only key
	// packing when many candidates are duplicates. Neither can pay off
	// unless the merge gate is reachable at all — the batch and at
	// least one dedup target must reach dedupMergeMin — so below that,
	// dedup by row probes: inserting as we go makes the destination
	// double as the within-batch filter.
	if n < dedupMergeMin ||
		(dst.Len() < dedupMergeMin && (exclude == nil || exclude.Len() < dedupMergeMin)) {
		probeAppend(dst, exclude, cols, n)
		return
	}
	// Unique candidate rows, in lexicographic row order (the order the
	// merge dedup and insertRows rely on).
	perm := rowSortPerm(cols, n)
	sel := make([]int32, 0, n)
	for i, p := range perm {
		if i > 0 && rowEqual(cols, perm[i-1], p) {
			continue
		}
		sel = append(sel, p)
	}
	sel = dropPresent(dst, cols, sel)
	if exclude != nil {
		sel = dropPresent(exclude, cols, sel)
	}
	if len(sel) > 0 {
		dst.insertRows(cols, sel)
	}
}

// probeAppend is the probe dedup regime: each row is packed into one
// reused scratch key and probed against dst (and exclude), and new
// rows go in via addKeyed, which copies the key into dst's slab and
// extends indexes and the columnar view incrementally. Within-batch
// duplicates need no extra pass — the first occurrence lands in dst
// before the second is probed.
func probeAppend(dst *Relation, exclude *Relation, cols [][]uint32, n int) {
	w := dst.arity
	scratch := make([]byte, 4*w)
	var slab []Value
	for i := 0; i < n; i++ {
		for c := 0; c < w; c++ {
			binary.BigEndian.PutUint32(scratch[4*c:], cols[c][i])
		}
		if dst.find(scratch) >= 0 || (exclude != nil && exclude.find(scratch) >= 0) {
			continue
		}
		if len(slab) < w {
			rows := n - i
			if rows > 1024 {
				rows = 1024
			}
			slab = make([]Value, rows*w)
		}
		t := Tuple(slab[:w:w])
		slab = slab[w:]
		for c := 0; c < w; c++ {
			t[c] = dst.dict.value(cols[c][i])
		}
		dst.addKeyed(scratch, t)
	}
}

// rowEqual reports whether rows a and b of cols agree on every column.
func rowEqual(cols [][]uint32, a, b int32) bool {
	for _, col := range cols {
		if col[a] != col[b] {
			return false
		}
	}
	return true
}

// rowCmp lexicographically compares row a of acols with row b of
// bcols; the column sets must have equal width.
func rowCmp(acols [][]uint32, a int32, bcols [][]uint32, b int32) int {
	for c := range acols {
		av, bv := acols[c][a], bcols[c][b]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// dropPresent filters out of sel (in place) the candidate rows already
// stored in r. sel must be in lexicographic row order; the order is
// preserved.
func dropPresent(r *Relation, cols [][]uint32, sel []int32) []int32 {
	if r == nil || r.Len() == 0 || len(sel) == 0 {
		return sel
	}
	if len(sel) >= dedupMergeMin && r.Len() >= dedupMergeMin &&
		r.Len() <= dedupMergeRatio*len(sel) {
		// Merge the sorted candidates against r's lexicographic key
		// run: one linear pass, no hashing, no key packing.
		cv := r.columns()
		run := cv.keyRun()
		out := sel[:0]
		j := 0
		for _, p := range sel {
			for j < len(run) && rowCmp(cv.col, run[j], cols, p) < 0 {
				j++
			}
			if j < len(run) && rowCmp(cv.col, run[j], cols, p) == 0 {
				continue
			}
			out = append(out, p)
		}
		return out
	}
	w := len(cols)
	scratch := make([]byte, 4*w)
	out := sel[:0]
	for _, p := range sel {
		for c := 0; c < w; c++ {
			binary.BigEndian.PutUint32(scratch[4*c:], cols[c][p])
		}
		if r.find(scratch) < 0 {
			out = append(out, p)
		}
	}
	return out
}

// insertRows materializes and stores the selected rows, which the
// caller guarantees are distinct and absent from r: their keys are
// written straight into the key slab, output tuples are carved from
// shared []Value slabs, built tuple indexes are extended in place, and
// the columnar view grows by bulk column copies instead of per-row key
// decoding.
func (r *Relation) insertRows(cols [][]uint32, sel []int32) {
	w := r.arity
	from := len(r.rows)
	r.keys = slices.Grow(r.keys, 4*w*len(sel))
	r.rows = slices.Grow(r.rows, len(sel))
	var slab []Value
	for i, p := range sel {
		for c := 0; c < w; c++ {
			r.keys = binary.BigEndian.AppendUint32(r.keys, cols[c][p])
		}
		if len(slab) < w {
			rows := len(sel) - i
			if rows > 1024 {
				rows = 1024
			}
			slab = make([]Value, rows*w)
		}
		t := Tuple(slab[:w:w])
		slab = slab[w:]
		for c := 0; c < w; c++ {
			t[c] = r.dict.value(cols[c][p])
		}
		r.rows = append(r.rows, t)
		for c, m := range r.idx {
			if m != nil {
				id := cols[c][p]
				m[id] = append(m[id], t)
			}
		}
	}
	r.placeFrom(from)
	if cv := r.cview; cv != nil {
		for c := 0; c < w; c++ {
			col := cv.col[c]
			for _, p := range sel {
				col = append(col, cols[c][p])
			}
			cv.col[c] = col
		}
		cv.n += len(sel)
	}
	r.sorted = nil
}
