package fact

// This file is the columnar output half of the batch pipeline: a Sink
// abstraction over "where derived tuples go" (a Relation, or a Delta
// staging area) and the batch-append machinery behind it. The scalar
// executors emit one tuple at a time through Add; the batch executor
// hands over whole ID column slabs through appendBatch, which dedups
// each row by probing the destination's row store under one reused
// scratch key, sizes the destination's key slab and hash table once
// for the rows that pass, and stores their packed keys only: no output
// tuple is built here. The destination decodes the stored rows into
// tuples on the first read that needs them (see Relation), so a result
// that is only counted, compared, joined again or rekeyed never is.
// One dedup regime serves every batch size: no row sort, no whole-row
// sorted run to keep fresh.

import "encoding/binary"

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
// counterpart of an Add loop. A first pass packs each row into one
// reused scratch key and probes dst's (and exclude's) row store. The
// rows that pass bound dst's growth, so its key slab grows and its
// hash table is sized once for them. A second pass copies each
// passing key into the slab and enters it in the table; it probes dst
// again, so a within-batch duplicate finds its first occurrence
// already stored. The rows are stored key-only (dst decodes them on
// first read) and dst's sorted memo and columnar view are extended
// once for the whole batch; its column indexes catch up on their next
// Lookup.
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
	key := make([]byte, 4*w)
	pack := func(i int32) []byte {
		for c := 0; c < w; c++ {
			binary.BigEndian.PutUint32(key[4*c:], cols[c][i])
		}
		return key
	}
	var sel []int32
	for i := int32(0); i < int32(n); i++ {
		k := pack(i)
		if dst.find(k) < 0 && (exclude == nil || exclude.find(k) < 0) {
			sel = append(sel, i)
		}
	}
	if len(sel) == 0 {
		return
	}
	// Sizing up front spares a large semi-naive round Go's repeated
	// regrowth of the slab and a full-table rehash at every doubling.
	dst.mutable()
	from := dst.Len()
	dst.reserve(len(sel))
	row := from
	for j, i := range sel {
		k := pack(i)
		if j > 0 && dst.find(k) >= 0 {
			continue
		}
		dst.keys = append(dst.keys, k...)
		if dst.table() != nil { // reserve left it room for every row
			dst.place(row, row+1)
		}
		row++
	}
	dst.extended(from)
}

// FreshSink is a Sink that keeps only the tuples absent from a relation
// the caller already holds: the derivations of a delta evaluation that
// are new against a cached result. Like Delta.Sink it dedups every row
// against that relation and against the rows it kept. The sink carries
// its result's header, so one allocation serves both, and the result
// allocates no slab, row or table before its first new tuple: an
// evaluation that derives nothing new costs that one small object.
type FreshSink struct {
	have *Relation
	out  Relation
}

// FreshSink returns a sink for arity-wide tuples that drops those in
// have; a nil have drops nothing. have must share d and arity.
func (d *Dict) FreshSink(arity int, have *Relation) *FreshSink {
	if have != nil {
		mustShareDict(d, have.dict, "FreshSink")
		if have.arity != arity {
			panic("fact: fresh sink over a relation of a different arity")
		}
	}
	return &FreshSink{have: have, out: Relation{dict: d, arity: arity}}
}

// Relation returns the kept tuples, nil when none was new. The sink
// lets go of have, which the result does not need.
func (s *FreshSink) Relation() *Relation {
	if s.out.Empty() {
		return nil
	}
	s.have = nil
	return &s.out
}

// Add keeps one tuple unless have or the kept rows hold it, reporting
// whether it was new. The kept copy is private.
func (s *FreshSink) Add(t Tuple) bool {
	var scratch [64]byte
	k := s.out.dict.packTuple(scratch[:0], t)
	if s.have != nil && s.have.find(k) >= 0 || s.out.find(k) >= 0 {
		return false
	}
	s.out.addKeyed(k, t.Clone())
	return true
}

// appendBatch keeps rows [0,n) of cols that are new against have and
// the kept rows.
func (s *FreshSink) appendBatch(cols [][]uint32, n int) {
	batchAppend(&s.out, s.have, cols, n)
}

// sinkDict implements Sink for FreshSink.
func (s *FreshSink) sinkDict() *Dict { return s.out.dict }
