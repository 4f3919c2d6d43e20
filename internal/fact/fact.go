// Package fact implements the relational data model underlying the
// transducer-network formalism of Ameloot, Neven and Van den Bussche
// (PODS 2011): atomic data elements from an infinite universe dom,
// facts R(a1,...,ak), finite relations, database schemas and database
// instances, together with the operations the paper's definitions rely
// on (active domain, containment, union, applying permutations of dom).
//
// Instances are sets of facts; all set semantics live here. Message
// buffers, which the paper models as multisets, are implemented in
// package network on top of the Fact type.
//
// Internally the package is an interned relational kernel: every Value
// is mapped to a dense uint32 ID by an interning dictionary
// (intern.go), tuples are keyed by their packed ID sequences, and a
// relation is an insertion-ordered row store — a slab of those packed
// keys, a pointer-free hash table of row numbers once it outgrows a
// linear scan, and the tuples in the same row order, decoded from the
// slab on first read for rows the batch pipeline stored as keys only —
// with lazily built per-column hash indexes (Lookup) that the
// join-based evaluators in packages fo and datalog bind against. The
// string-typed API is a thin surface over the interned representation.
package fact

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Value is an atomic data element of the universe dom. The paper's dom
// is an arbitrary infinite set equipped only with equality; strings
// satisfy both requirements. Node identifiers are Values too, since
// the paper stores nodes in relations (Id, All).
type Value string

// Tuple is an ordered sequence of Values.
type Tuple []Value

// Key returns a canonical encoding of the tuple usable as a map key:
// the packed sequence of interned value IDs, interned through the
// process-default dictionary. No two distinct tuples share a key
// (distinct arities give distinct key lengths; distinct values give
// distinct IDs). Keys are only stable within a process and only
// comparable within one dictionary — handle-threading callers use
// KeyIn.
func (t Tuple) Key() string { return t.KeyIn(defaultDict) }

// KeyIn is Key over an explicit interning dictionary: the canonical
// packed-ID encoding of the tuple under d.
func (t Tuple) KeyIn(d *Dict) string {
	return string(d.packTuple(make([]byte, 0, 4*len(t)), t))
}

// Less reports whether t orders before u column-wise by value (the
// deterministic order used by Tuples and Facts).
func (t Tuple) Less(u Tuple) bool {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if t[i] != u[i] {
			return t[i] < u[i]
		}
	}
	return len(t) < len(u)
}

// Equal reports whether two tuples have the same length and elements.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = string(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Fact is an expression R(a1,...,ak): a relation name applied to a
// tuple of data elements.
type Fact struct {
	Rel  string
	Args Tuple
}

// NewFact builds a fact from a relation name and values.
func NewFact(rel string, args ...Value) Fact {
	return Fact{Rel: rel, Args: Tuple(args).Clone()}
}

// Key returns a canonical encoding of the fact usable as a map key:
// the interned ID of the relation name followed by the packed argument
// IDs, interned through the process-default dictionary. Keys are only
// stable within a process and only comparable within one dictionary —
// handle-threading callers use KeyIn.
func (f Fact) Key() string { return f.KeyIn(defaultDict) }

// KeyIn is Key over an explicit interning dictionary.
func (f Fact) KeyIn(d *Dict) string {
	buf := make([]byte, 0, 4+4*len(f.Args))
	buf = binary.BigEndian.AppendUint32(buf, d.intern(Value(f.Rel)))
	buf = d.packTuple(buf, f.Args)
	return string(buf)
}

// Arity returns the number of arguments of the fact.
func (f Fact) Arity() int { return len(f.Args) }

// Equal reports whether two facts are identical.
func (f Fact) Equal(g Fact) bool { return f.Rel == g.Rel && f.Args.Equal(g.Args) }

// Clone returns a deep copy of the fact.
func (f Fact) Clone() Fact { return Fact{Rel: f.Rel, Args: f.Args.Clone()} }

func (f Fact) String() string { return f.Rel + f.Args.String() }

// Relation is a finite set of tuples of a fixed arity. It is stored as
// one insertion-ordered row store: a slab of packed interned-ID keys
// (4 bytes per column, row-major), once the relation outgrows a linear
// scan a pointer-free open-addressing table of row numbers over the
// slab, and the stored tuples in the same row order.
//
// The tuples are a lazily decoded copy of the slab. Rows added with a
// tuple (Add, UnionWith) keep it, as long as every earlier row is
// decoded. The batch sink (Batch.ProjectInto into a Relation or a
// Delta.Sink), Delta.Commit and Rekey append keys only, and the first
// read that hands out tuples decodes every pending row in one slab:
// Each, Tuples, Lookup, String, Remove, Seal, Minus and Intersect (of
// the receiver) and UnionWith (of its argument). Len, Empty, Contains,
// SubsetOf, Equal, Clone, Rekey and the batch executor read the slab
// alone and never decode.
//
// The zero value is not usable; construct with NewRelation
// (process-default dictionary) or Dict.NewRelation. Like the rest of
// the data model, Relations are not safe for concurrent use: reads
// memoize (decoded rows, column indexes, sorted order) in place — see
// Seal for the read-only exception. Only the interning dictionary is
// shared safely across goroutines.
type Relation struct {
	// dict is the interning dictionary the relation's packed keys are
	// encoded in. Every derived relation (Clone, Minus, Intersect,
	// ApplyPermutationRel) inherits it; set operations across different
	// dictionaries are checked errors (see mustShareDict).
	dict  *Dict
	arity int

	// keys is the row-major key slab: row i's packed key is the
	// 4*arity bytes at keys[4*arity*i:]. It holds every row, so the
	// row count is its length over the key width. Rows keep insertion
	// order, except that Remove moves the last row into the freed one.
	keys []byte

	// rows is the decoded prefix of the slab: rows[i] is row i's
	// stored tuple for i < len(rows). Rows appended key-only lie past
	// len(rows) until materialize decodes them. A zero-arity relation
	// has an empty slab and keeps its at most one row here, always
	// decoded.
	rows []Tuple

	// table, when non-nil, is a linear-probing hash table over the
	// slab: a slot holds row+1, 0 marks it empty, and its power-of-two
	// length is at least twice the row count. It is nil while the
	// relation has at most linearMax rows, which probes scan instead.
	table []int32

	// idx[c], when non-nil, maps the interned ID of a value to the
	// stored tuples whose column c holds that value. Indexes are built
	// lazily by Lookup, maintained by Add and UnionWith, and dropped by
	// Remove.
	idx []map[uint32][]Tuple

	// cview, when non-nil, is the columnar decoding of the relation
	// (per-column ID vectors with sorted runs and row indexes; see
	// column.go). Built lazily by the batch executor, maintained by
	// addKeyed, dropped by Remove.
	cview *colview

	// sorted memoizes Tuples(); mutations reset it.
	sorted []Tuple
}

// linearMax is the row count up to which a relation keeps no hash
// table: a membership probe scans at most this many keys of the slab,
// which costs less than hashing, and the many tiny relations of a
// transition (deltas, single-fact sends) allocate no table.
const linearMax = 8

// NewRelation returns an empty relation of the given arity over the
// process-default dictionary.
func NewRelation(arity int) *Relation { return defaultDict.NewRelation(arity) }

// NewRelation returns an empty relation of the given arity interning
// through d.
func (d *Dict) NewRelation(arity int) *Relation {
	return &Relation{dict: d, arity: arity}
}

// Dict returns the relation's interning dictionary — the handle every
// derived relation must be built over. Evaluators thread it instead
// of reaching for the process default.
func (r *Relation) Dict() *Dict { return r.dict }

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples in the relation. A decoded
// relation (every Add-built one, and every zero-arity one) counts its
// rows without a division.
func (r *Relation) Len() int {
	if r.decoded() {
		return len(r.rows)
	}
	return len(r.keys) / (4 * r.arity)
}

// Empty reports whether the relation has no tuples. A zero-arity
// relation's slab is always empty and a wider one decodes no row
// without its key, so no division is needed.
func (r *Relation) Empty() bool { return len(r.keys) == 0 && len(r.rows) == 0 }

// decoded reports whether every row has its tuple in rows; it always
// holds at arity 0.
func (r *Relation) decoded() bool { return 4*r.arity*len(r.rows) == len(r.keys) }

// materialize decodes the rows appended key-only since the last decode
// — rows [len(rows), Len) — carving their tuples from one []Value
// slab. Every read that hands out stored tuples calls it first; on a
// decoded relation it writes nothing, which is what keeps a sealed
// relation's reads free of writes. The check is kept apart from the
// decoding so that it inlines into those reads.
func (r *Relation) materialize() {
	if !r.decoded() {
		r.decode()
	}
}

// decode is materialize's decoding step.
func (r *Relation) decode() {
	from, n, w := len(r.rows), r.Len(), r.arity
	slab := make([]Value, (n-from)*w)
	r.rows = slices.Grow(r.rows, n-from)
	for i := from; i < n; i++ {
		t := Tuple(slab[:w:w])
		slab = slab[w:]
		for c := range t {
			t[c] = r.dict.value(r.rowID(i, c))
		}
		r.rows = append(r.rows, t)
	}
}

// key returns the packed key of row i, a view into the slab.
func (r *Relation) key(i int) []byte {
	kw := 4 * r.arity
	return r.keys[i*kw : (i+1)*kw : (i+1)*kw]
}

// rowID returns the interned ID at column c of row i.
func (r *Relation) rowID(i, c int) uint32 {
	return binary.BigEndian.Uint32(r.keys[4*(i*r.arity+c):])
}

// hashKey hashes a packed key one 4-byte ID at a time (multiply-xor,
// high half folded into the low bits the table masks with).
func hashKey(k []byte) uint64 {
	const m = 0x9E3779B97F4A7C15
	h := uint64(len(k)) * m
	for ; len(k) >= 4; k = k[4:] {
		h = (h ^ uint64(binary.LittleEndian.Uint32(k))) * m
	}
	return h ^ h>>32
}

// tableSize is the hash table length for n rows: the least power of
// two keeping the load at or under one half.
func tableSize(n int) int { return 1 << bits.Len(uint(2*n-1)) }

// find returns the row whose packed key is k, or -1 if k is absent (a
// key of another arity's width included).
func (r *Relation) find(k []byte) int {
	kw := 4 * r.arity
	if len(k) != kw {
		return -1
	}
	if r.table == nil {
		if kw == 0 {
			return len(r.rows) - 1 // the empty tuple's row, or -1
		}
		for i, off := 0, 0; off < len(r.keys); i, off = i+1, off+kw {
			if string(r.keys[off:off+kw]) == string(k) {
				return i
			}
		}
		return -1
	}
	mask := len(r.table) - 1
	for s := int(hashKey(k)) & mask; ; s = (s + 1) & mask {
		e := r.table[s]
		if e == 0 {
			return -1
		}
		if string(r.key(int(e-1))) == string(k) {
			return int(e - 1)
		}
	}
}

// slotOf returns the table slot holding row i.
func (r *Relation) slotOf(i int) int {
	mask := len(r.table) - 1
	s := int(hashKey(r.key(i))) & mask
	for int(r.table[s]) != i+1 {
		s = (s + 1) & mask
	}
	return s
}

// placeFrom enters rows [from, Len) — freshly appended, distinct and
// absent before — into the hash table, building the table once the
// relation outgrows linearMax and doubling it past half load.
func (r *Relation) placeFrom(from int) {
	n := r.Len()
	switch {
	case r.table != nil && 2*n <= len(r.table):
	case r.table != nil || n > linearMax:
		r.table = make([]int32, tableSize(n))
		from = 0
	default:
		return
	}
	r.place(from, n)
}

// place enters rows [from, to) into the hash table, which has room.
func (r *Relation) place(from, to int) {
	mask := len(r.table) - 1
	for i := from; i < to; i++ {
		s := int(hashKey(r.key(i))) & mask
		for r.table[s] != 0 {
			s = (s + 1) & mask
		}
		r.table[s] = int32(i + 1)
	}
}

// unplace empties row i's table slot by backward-shift deletion: each
// later entry of the probe cluster moves into the hole unless its home
// slot lies between the hole and the entry, so probe sequences never
// cross an empty slot and no tombstones are needed.
func (r *Relation) unplace(i int) {
	mask := len(r.table) - 1
	hole := r.slotOf(i)
	for j := (hole + 1) & mask; r.table[j] != 0; j = (j + 1) & mask {
		home := int(hashKey(r.key(int(r.table[j]-1)))) & mask
		if (j-home)&mask >= (j-hole)&mask {
			r.table[hole] = r.table[j]
			hole = j
		}
	}
	r.table[hole] = 0
}

// addKeyed appends a tuple absent from the relation under its packed
// key. k is copied into the slab; t is stored as is when every earlier
// row is decoded, and is otherwise left for materialize to decode with
// them.
func (r *Relation) addKeyed(k []byte, t Tuple) {
	if r.decoded() {
		r.rows = append(r.rows, t)
	}
	r.keys = append(r.keys, k...)
	r.appended(r.Len() - 1)
}

// appended maintains the hash table, the sorted memo and any built
// indexes and columnar view after rows [from, Len) were appended.
func (r *Relation) appended(from int) {
	r.placeFrom(from)
	r.extended(from)
}

// extended maintains the sorted memo and any built indexes and
// columnar view after rows [from, Len) were appended and placed in the
// hash table. The tuple indexes hold decoded rows, so a relation with
// one built decodes the appended rows here.
func (r *Relation) extended(from int) {
	r.sorted = nil
	n := r.Len()
	for c, m := range r.idx {
		if m != nil {
			r.materialize()
			for i := from; i < n; i++ {
				id := r.rowID(i, c)
				m[id] = append(m[id], r.rows[i])
			}
		}
	}
	if r.cview != nil {
		for i := from; i < n; i++ {
			r.cview.appendRow(r.key(i))
		}
	}
}

// reserve readies r for up to n more rows appended key-only: the key
// slab grows once, and the hash table is sized once for Len+n rows, so
// the appends neither regrow the slab nor rebuild the table at every
// doubling.
func (r *Relation) reserve(n int) {
	r.keys = slices.Grow(r.keys, 4*r.arity*n)
	if total := r.Len() + n; total > linearMax && (r.table == nil || 2*total > len(r.table)) {
		r.table = make([]int32, tableSize(total))
		r.place(0, r.Len())
	}
}

// Add inserts a tuple; it panics if the tuple has the wrong arity.
// It reports whether the tuple was new.
func (r *Relation) Add(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("fact: adding %d-tuple to %d-ary relation", len(t), r.arity))
	}
	var scratch [64]byte
	k := r.dict.packTuple(scratch[:0], t)
	if r.find(k) >= 0 {
		return false
	}
	r.addKeyed(k, t.Clone())
	return true
}

// Remove deletes a tuple, reporting whether it was present. The last
// row moves into the freed one, so the slab stays dense. Built column
// indexes are dropped (deletion is rare; the paper's inflationary
// transducers never delete).
func (r *Relation) Remove(t Tuple) bool {
	var scratch [64]byte
	k, ok := r.dict.packTupleLookup(scratch[:0], t)
	if !ok {
		return false
	}
	i := r.find(k)
	if i < 0 {
		return false
	}
	r.materialize()
	last := len(r.rows) - 1
	if r.table != nil {
		r.unplace(i)
		if i != last {
			r.table[r.slotOf(last)] = int32(i + 1)
		}
	}
	if i != last {
		copy(r.key(i), r.key(last))
		r.rows[i] = r.rows[last]
	}
	r.rows[last] = nil
	r.rows = r.rows[:last]
	r.keys = r.keys[:4*r.arity*last]
	r.idx = nil
	r.cview = nil
	r.sorted = nil
	return true
}

// Contains reports whether the tuple is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	var scratch [64]byte
	k, ok := r.dict.packTupleLookup(scratch[:0], t)
	return ok && r.find(k) >= 0
}

// Lookup returns the stored tuples whose column col equals v, backed
// by a lazily built hash index on that column. The returned slice and
// its tuples are shared storage and must not be modified. Column
// indexes survive Add and UnionWith and are invalidated by Remove.
func (r *Relation) Lookup(col int, v Value) []Tuple {
	if col < 0 || col >= r.arity {
		panic(fmt.Sprintf("fact: Lookup column %d out of range for arity %d", col, r.arity))
	}
	id, ok := r.dict.lookup(v)
	if !ok {
		return nil
	}
	return r.index(col)[id]
}

// index returns (building on first access) the tuple index of column
// c: interned ID → the stored tuples holding it at c.
func (r *Relation) index(c int) map[uint32][]Tuple {
	if r.idx == nil {
		r.idx = make([]map[uint32][]Tuple, r.arity)
	}
	if r.idx[c] == nil {
		r.materialize()
		m := make(map[uint32][]Tuple, len(r.rows))
		for i, t := range r.rows {
			id := r.rowID(i, c)
			m[id] = append(m[id], t)
		}
		r.idx[c] = m
	}
	return r.idx[c]
}

// Tuples returns the tuples in deterministic (column-wise value)
// order. The returned slice and tuples are shared storage and must not
// be modified; the sort is memoized until the next mutation.
func (r *Relation) Tuples() []Tuple {
	if r.sorted == nil {
		r.materialize()
		out := make([]Tuple, len(r.rows))
		copy(out, r.rows)
		sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
		r.sorted = out
	}
	return r.sorted
}

// Each calls fn for every tuple, in insertion order (see Remove for
// the one exception), stopping early if fn returns false. Tuples added
// by fn are not visited.
func (r *Relation) Each(fn func(Tuple) bool) {
	r.materialize()
	for _, t := range r.rows {
		if !fn(t) {
			return
		}
	}
}

// Clone returns a copy of the relation over the same dictionary: one
// copy each of the key slab, the decoded rows and the hash table. It
// decodes nothing: rows still pending decode stay pending in the copy.
// Stored tuples are shared: they are immutable by convention (Add
// stores a private copy and no accessor exposes them for writing).
// Column indexes are not copied.
func (r *Relation) Clone() *Relation {
	// Room for a quarter more rows: callers mostly clone to grow (an
	// inflationary update is a clone plus a few new facts), and the
	// slack spares that growth a second copy of the slab and rows.
	n := r.Len() + r.Len()/4 + 1
	c := &Relation{
		dict:  r.dict,
		arity: r.arity,
		keys:  append(make([]byte, 0, 4*r.arity*n), r.keys...),
		table: slices.Clone(r.table),
	}
	if len(r.rows) > 0 {
		c.rows = append(make([]Tuple, 0, n), r.rows...)
	}
	return c
}

// Rekey re-encodes the relation into the destination dictionary: the
// packed keys are rebuilt by translating each distinct value ID of
// r's dictionary into dst once (see idMap). It is the sanctioned path
// across dictionary boundaries — serialization rendezvous, moving a
// per-run result into a longer-lived dictionary — and it round-trips
// bit-identically: rekeying back into the original dictionary
// reproduces the original packed keys, because interning is
// idempotent per dictionary. A same-dictionary Rekey degenerates to
// Clone.
func (r *Relation) Rekey(dst *Dict) *Relation {
	if dst == r.dict {
		return r.Clone()
	}
	m := newIDMap(r.dict, dst, len(r.keys)/4, true)
	return r.rekeyVia(&m, dst)
}

// Seal pre-builds every lazily memoized read structure of the
// relation: the decoded rows, the per-column tuple indexes, the
// memoized sorted order, and the columnar view with its per-column
// indexes and sorted runs.
// After Seal, read accessors (Lookup, Tuples, Each, Contains,
// SubsetOf, Equal, the batch executor's columnar probes and the batch
// sink's row-store dedup probes) perform no in-place memoization, so
// a sealed relation that is never mutated again may be shared
// read-only across goroutines — the loophole the shard-resident
// runtime uses to share one All relation across every node state
// instead of materializing n copies. Mutating a sealed relation is
// permitted (memos are maintained or rebuilt as usual) but forfeits
// the concurrent-read guarantee.
func (r *Relation) Seal() {
	r.materialize()
	for c := 0; c < r.arity; c++ {
		r.index(c)
	}
	r.Tuples()
	cv := r.columns()
	for c := 0; c < r.arity; c++ {
		cv.index(c)
		cv.sortedRun(c)
	}
}

// UnionWith adds all tuples of s into r; s must have the same arity
// and the same interning dictionary (keys move between the relations
// without re-encoding; use Rekey to cross dictionaries).
func (r *Relation) UnionWith(s *Relation) {
	if s == nil || s == r {
		return
	}
	if s.arity != r.arity {
		panic("fact: union of relations with different arities")
	}
	mustShareDict(r.dict, s.dict, "UnionWith")
	s.materialize()
	for i, t := range s.rows {
		if k := s.key(i); r.find(k) < 0 {
			r.addKeyed(k, t)
		}
	}
}

// appendDisjoint appends every row of s to r. s must share r's arity
// and dictionary and hold no tuple of r, so no key is probed: the key
// slab is copied in one append and the hash table is resized at most
// once. The rows go in key-only unless both sides are fully decoded,
// in which case s's tuples are appended too and r stays decoded: a
// tuple-pipeline round stages through Add and reads Full through
// Lookup and Each, and would otherwise decode every row twice.
func (r *Relation) appendDisjoint(s *Relation) {
	from := r.Len()
	if r.decoded() && s.decoded() {
		r.rows = append(r.rows, s.rows...)
	}
	r.keys = append(r.keys, s.keys...)
	r.appended(from)
}

// Minus returns r \ s as a new relation over r's dictionary; r and s
// must share a dictionary.
func (r *Relation) Minus(s *Relation) *Relation {
	if s == nil {
		return r.Clone()
	}
	mustShareDict(r.dict, s.dict, "Minus")
	r.materialize()
	out := r.dict.NewRelation(r.arity)
	for i, t := range r.rows {
		if k := r.key(i); s.find(k) < 0 {
			out.addKeyed(k, t)
		}
	}
	return out
}

// Intersect returns r ∩ s as a new relation over r's dictionary; r
// and s must share a dictionary.
func (r *Relation) Intersect(s *Relation) *Relation {
	out := r.dict.NewRelation(r.arity)
	if s == nil {
		return out
	}
	mustShareDict(r.dict, s.dict, "Intersect")
	r.materialize()
	for i, t := range r.rows {
		if k := r.key(i); s.find(k) >= 0 {
			out.addKeyed(k, t)
		}
	}
	return out
}

// Equal reports whether r and s contain exactly the same tuples.
// Unlike the mutating set operations, comparing across dictionaries
// is well-defined (sets of value tuples, not sets of keys), so a
// cross-dictionary Equal re-encodes probe keys instead of erroring —
// the differential harnesses compare per-run-dictionary outputs
// against process-default ones through exactly this path. A relation
// is equal to itself in O(1).
func (r *Relation) Equal(s *Relation) bool {
	if r == s {
		return true
	}
	if s == nil {
		return r.Len() == 0
	}
	if r.arity != s.arity || r.Len() != s.Len() {
		return false
	}
	return r.SubsetOf(s)
}

// SubsetOf reports whether every tuple of r is in s. Like Equal it is
// cross-dictionary safe, and O(1) when s is r.
func (r *Relation) SubsetOf(s *Relation) bool {
	if r == s {
		return true
	}
	if s == nil {
		return r.Len() == 0
	}
	if r.dict != s.dict {
		return r.subsetRekeyed(s)
	}
	for i, n := 0, r.Len(); i < n; i++ {
		if s.find(r.key(i)) < 0 {
			return false
		}
	}
	return true
}

// subsetRekeyed is the cross-dictionary membership sweep: each of r's
// stored keys is translated ID by ID into s's dictionary (lookup-only —
// a value never interned in s's dictionary proves absence) and probed
// against s's keys. The table resolves each distinct value once.
func (r *Relation) subsetRekeyed(s *Relation) bool {
	m := newIDMap(r.dict, s.dict, len(r.keys)/4, false)
	var scratch [64]byte
	for i, n := 0, r.Len(); i < n; i++ {
		k := scratch[:0]
		for c := 0; c < r.arity; c++ {
			id, ok := m.get(r.rowID(i, c))
			if !ok {
				return false
			}
			k = binary.BigEndian.AppendUint32(k, id)
		}
		if s.find(k) < 0 {
			return false
		}
	}
	return true
}

func (r *Relation) String() string {
	ts := r.Tuples()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
