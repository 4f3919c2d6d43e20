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
// tuple (Add, UnionWith, Extend) keep it, as long as every earlier row
// is decoded. The batch sink (Batch.ProjectInto into a Relation or a
// Delta.Sink), Delta.Commit and Rekey append keys only, and the first
// read that hands out tuples decodes every pending row in one slab:
// Each, Tuples, Lookup, LookupEach, String, Remove, Seal, Minus and
// Intersect (of the receiver) and UnionWith (of its argument). Len,
// Empty, Contains, SubsetOf, Equal, Clone, Extend, Rekey and the batch
// executor read the slab alone and never decode.
//
// Relations built by Extend are versions: a chain of them shares one
// store (key slab, decoded rows, hash table, column indexes), and each
// version is a prefix of the next. Only the newest version, the tip,
// grows the store in place; every older version stays a valid,
// unchanged view of its prefix, and mutating it (Add, UnionWith,
// Remove, the batch sink) first copies its rows into a store of its
// own. One goroutine at a time may read and grow the versions of one
// chain: a read of any version may extend the shared column indexes or
// decode into the shared rows, and the tip's growth writes the shared
// table.
//
// The zero value is not usable; construct with NewRelation
// (process-default dictionary) or Dict.NewRelation. Like the rest of
// the data model, Relations are not safe for concurrent use: reads
// memoize (decoded rows, column indexes, sorted order) in place — see
// Seal for the read-only exception. Only the interning dictionary is
// shared safely across goroutines.
type Relation struct {
	// dict is the interning dictionary the relation's packed keys are
	// encoded in. Every derived relation (Clone, Extend, Minus,
	// Intersect, ApplyPermutationRel) inherits it; set operations
	// across different dictionaries are checked errors (see
	// mustShareDict).
	dict  *Dict
	arity int

	// keys is the row-major key slab: row i's packed key is the
	// 4*arity bytes at keys[4*arity*i:]. It holds every row, so the
	// row count is its length over the key width. Rows keep insertion
	// order, except that Remove moves the last row into the freed one.
	// Versions of one store share its backing array; each sees its
	// own prefix.
	keys []byte

	// rows is the decoded prefix of the slab: rows[i] is row i's
	// stored tuple for i < len(rows). Rows appended key-only lie past
	// len(rows) until materialize decodes them. A zero-arity relation
	// has an empty slab and keeps its at most one row here, always
	// decoded.
	rows []Tuple

	// st holds what the versions of one store share: the hash table,
	// the column indexes and the tip's row count. It is nil while the
	// relation has neither table nor index and no other version.
	st *store

	// cview, when non-nil, is the columnar decoding of the relation
	// (per-column ID vectors with sorted runs and row indexes; see
	// column.go). Built lazily by the batch executor, maintained by
	// addKeyed, dropped by Remove. Each version builds its own.
	cview *colview

	// sorted memoizes Tuples(); mutations reset it.
	sorted []Tuple
}

// store is the part of a relation its versions share (see Extend).
// Every entry is a row number; a version with n rows ignores table
// entries and index rows at or past n, so the tip appends without
// disturbing older versions.
type store struct {
	// table, when non-nil, is a linear-probing hash table over the
	// slab: a slot holds row+1, 0 marks it empty, and its power-of-two
	// length is at least twice the tip's row count. It is nil while
	// the tip has at most linearMax rows, which probes scan instead.
	table []int32

	// idx[c] is the row index of column c, built by Lookup on first
	// use and extended over rows appended since; Remove drops them.
	idx []colIndex

	// n is the row count of the tip: the one version that may grow
	// the store in place.
	n int

	// versioned marks a store made by Extend, which later Extends of
	// its tip grow in place; sealed, one whose relation was sealed,
	// which only copies grow.
	versioned, sealed bool
}

// colIndex maps the interned ID of a value to the rows whose column
// holds it, ascending; n is the row count it covers.
type colIndex struct {
	m map[uint32][]int32
	n int
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

// decode is materialize's decoding step. An older version may decode
// into the rows backing array it shares with newer ones: it writes
// only rows of its own prefix, which every version of the store holds
// alike.
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

// store returns the relation's shared store, creating a private one
// for a relation that has none yet.
func (r *Relation) store() *store {
	if r.st == nil {
		r.st = &store{n: r.Len()}
	}
	return r.st
}

// table returns the shared hash table, nil when there is none.
func (r *Relation) table() []int32 {
	if r.st == nil {
		return nil
	}
	return r.st.table
}

// find returns the row whose packed key is k, or -1 if k is absent (a
// key of another arity's width included). Table entries past the
// relation's own rows belong to newer versions and are skipped.
func (r *Relation) find(k []byte) int {
	kw := 4 * r.arity
	if len(k) != kw {
		return -1
	}
	table := r.table()
	if table == nil {
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
	n := int32(len(r.keys) / kw)
	mask := len(table) - 1
	for s := int(hashKey(k)) & mask; ; s = (s + 1) & mask {
		e := table[s]
		if e == 0 {
			return -1
		}
		if e <= n && string(r.key(int(e-1))) == string(k) {
			return int(e - 1)
		}
	}
}

// slotOf returns the table slot holding row i.
func (r *Relation) slotOf(i int) int {
	table := r.st.table
	mask := len(table) - 1
	s := int(hashKey(r.key(i))) & mask
	for int(table[s]) != i+1 {
		s = (s + 1) & mask
	}
	return s
}

// placeFrom enters rows [from, Len) — freshly appended, distinct and
// absent before — into the hash table, building the table once the
// relation outgrows linearMax and doubling it past half load.
func (r *Relation) placeFrom(from int) {
	n, table := r.Len(), r.table()
	switch {
	case table != nil && 2*n <= len(table):
	case table != nil || n > linearMax:
		r.store().table = make([]int32, tableSize(n))
		from = 0
	default:
		return
	}
	r.place(from, n)
}

// place enters rows [from, to) into the hash table, which has room.
func (r *Relation) place(from, to int) {
	table := r.st.table
	mask := len(table) - 1
	for i := from; i < to; i++ {
		s := int(hashKey(r.key(i))) & mask
		for table[s] != 0 {
			s = (s + 1) & mask
		}
		table[s] = int32(i + 1)
	}
}

// unplace empties row i's table slot by backward-shift deletion: each
// later entry of the probe cluster moves into the hole unless its home
// slot lies between the hole and the entry, so probe sequences never
// cross an empty slot and no tombstones are needed.
func (r *Relation) unplace(i int) {
	table := r.st.table
	mask := len(table) - 1
	hole := r.slotOf(i)
	for j := (hole + 1) & mask; table[j] != 0; j = (j + 1) & mask {
		home := int(hashKey(r.key(int(table[j]-1)))) & mask
		if (j-home)&mask >= (j-hole)&mask {
			table[hole] = table[j]
			hole = j
		}
	}
	table[hole] = 0
}

// mutable readies r for appending in place. The tip of a store (and
// any relation with a store of its own) appends in place; an older
// version, or any version of a sealed shared store, first copies its
// rows into a private store.
func (r *Relation) mutable() {
	if st := r.st; st != nil && (r.Len() != st.n || st.versioned && st.sealed) {
		r.detach()
	}
}

// detach moves r onto a private copy of its rows. The columnar view
// and the sorted memo describe the same rows and stay.
func (r *Relation) detach() {
	c := r.Clone()
	r.keys, r.rows, r.st = c.keys, c.rows, c.st
}

// Clone returns a copy of the relation over the same dictionary, in a
// store of its own: one copy each of the key slab, the decoded rows and
// the hash table, made eagerly, so clones of one relation may be
// handed to different goroutines. The copies have room for a quarter
// more rows: a copy is mostly made to grow (the first Extend of a
// chain, a cached result plus a few new facts), and the slack spares
// that growth a second copy. An older version's hash table, which also
// holds newer rows, is rebuilt over the version's own rows. Clone
// decodes nothing: rows still pending decode stay pending in the copy.
// Stored tuples are shared: they are immutable by convention (Add
// stores a private copy and no accessor exposes them for writing).
// Column indexes are not copied.
func (r *Relation) Clone() *Relation {
	n := r.Len() + r.Len()/4 + 1
	c := &Relation{
		dict:  r.dict,
		arity: r.arity,
		keys:  append(make([]byte, 0, 4*r.arity*n), r.keys...),
	}
	if len(r.rows) > 0 {
		c.rows = append(make([]Tuple, 0, n), r.rows...)
	}
	if st := r.st; st != nil && st.table != nil {
		if r.Len() == st.n {
			c.store().table = slices.Clone(st.table)
		} else {
			c.placeFrom(0)
		}
	}
	return c
}

// addKeyed appends a tuple absent from the relation under its packed
// key; the caller has made r mutable. k is copied into the slab; t is
// stored as is when every earlier row is decoded, and is otherwise
// left for materialize to decode with them. A nil t appends the key
// only.
func (r *Relation) addKeyed(k []byte, t Tuple) {
	if r.decoded() && (t != nil || r.arity == 0) {
		r.rows = append(r.rows, t)
	}
	r.keys = append(r.keys, k...)
	r.appended(r.Len() - 1)
}

// appended maintains the hash table, the sorted memo, the columnar
// view and the tip count after rows [from, Len) were appended.
func (r *Relation) appended(from int) {
	r.placeFrom(from)
	r.extended(from)
}

// extended maintains the sorted memo, any built columnar view and the
// tip count after rows [from, Len) were appended and placed in the
// hash table. Column indexes catch up on their next Lookup.
func (r *Relation) extended(from int) {
	r.sorted = nil
	if r.cview != nil {
		for i, n := from, r.Len(); i < n; i++ {
			r.cview.appendRow(r.key(i))
		}
	}
	if r.st != nil {
		r.st.n = r.Len()
	}
}

// reserve readies r for up to n more rows appended key-only: the key
// slab grows once, and the hash table is sized once for Len+n rows, so
// the appends neither regrow the slab nor rebuild the table at every
// doubling. The caller has made r mutable.
func (r *Relation) reserve(n int) {
	r.keys = slices.Grow(r.keys, 4*r.arity*n)
	if total, table := r.Len()+n, r.table(); total > linearMax && (table == nil || 2*total > len(table)) {
		r.store().table = make([]int32, tableSize(total))
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
	r.mutable()
	r.addKeyed(k, t.Clone())
	return true
}

// Extend returns r ∪ d as a new version of r, leaving r unchanged. It
// appends only d's rows absent from r. When r is the tip of a store an
// earlier Extend made, the new version shares that store and appends
// in place, so a chain of Extends costs O(|d|) each; otherwise (a
// relation built another way, a sealed one, or an older version) r's
// rows are first copied once into a fresh store, which the new
// version's own Extends then grow in place. When d adds nothing, r
// itself is returned. d must share r's arity and dictionary; it is
// read without being decoded.
func (r *Relation) Extend(d *Relation) *Relation {
	if d == nil || d == r {
		return r
	}
	if d.arity != r.arity {
		panic("fact: extending a relation with one of a different arity")
	}
	mustShareDict(r.dict, d.dict, "Extend")
	first, nd := 0, d.Len()
	for first < nd && r.find(d.key(first)) >= 0 {
		first++
	}
	if first == nd {
		return r
	}
	var v *Relation
	if st := r.st; st != nil && st.versioned && !st.sealed && r.Len() == st.n {
		v = &Relation{dict: r.dict, arity: r.arity, keys: r.keys, rows: r.rows, st: st}
	} else {
		v = r.Clone()
		v.store().versioned = true
	}
	for i := first; i < nd; i++ {
		k := d.key(i)
		if i > first && v.find(k) >= 0 {
			continue
		}
		var t Tuple
		if i < len(d.rows) {
			t = d.rows[i]
		}
		v.addKeyed(k, t)
	}
	return v
}

// Remove deletes a tuple, reporting whether it was present. The last
// row moves into the freed one, so the slab stays dense. Built column
// indexes are dropped (deletion is rare; the paper's inflationary
// transducers never delete). A version that shares its store copies
// its rows first.
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
	if st := r.st; st != nil && (st.versioned || r.Len() != st.n) {
		r.detach()
	}
	r.materialize()
	last := len(r.rows) - 1
	if r.table() != nil {
		r.unplace(i)
		if i != last {
			r.st.table[r.slotOf(last)] = int32(i + 1)
		}
	}
	if i != last {
		copy(r.key(i), r.key(last))
		r.rows[i] = r.rows[last]
	}
	r.rows[last] = nil
	r.rows = r.rows[:last]
	r.keys = r.keys[:4*r.arity*last]
	if r.st != nil {
		r.st.idx, r.st.n = nil, last
	}
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

// Lookup returns the stored tuples whose column col equals v, in row
// order, backed by a lazily built hash index on that column. The slice
// is the caller's; the tuples are shared storage and must not be
// modified. Column indexes survive Add, UnionWith and Extend (every
// version of a store reads its prefix of one index) and are dropped by
// Remove. LookupEach is the allocation-free form.
func (r *Relation) Lookup(col int, v Value) []Tuple {
	var out []Tuple
	r.LookupEach(col, v, func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// LookupEach calls fn for every stored tuple whose column col equals
// v, in row order, stopping early if fn returns false. Tuples added by
// fn are not visited.
func (r *Relation) LookupEach(col int, v Value, fn func(Tuple) bool) {
	if col < 0 || col >= r.arity {
		panic(fmt.Sprintf("fact: Lookup column %d out of range for arity %d", col, r.arity))
	}
	id, ok := r.dict.lookup(v)
	if !ok {
		return
	}
	rows := r.matches(col, id)
	if len(rows) == 0 {
		return
	}
	r.materialize()
	for _, i := range rows {
		if !fn(r.rows[i]) {
			return
		}
	}
}

// matches returns the rows of r whose column c holds id, ascending:
// the prefix of the shared index bucket below r's row count.
func (r *Relation) matches(c int, id uint32) []int32 {
	rows := r.index(c)[id]
	n := r.Len()
	if len(rows) == 0 || int(rows[len(rows)-1]) < n {
		return rows
	}
	return rows[:sort.Search(len(rows), func(j int) bool { return int(rows[j]) >= n })]
}

// index returns the row index of column c (interned ID → the rows
// holding it at c), building it on first access and extending it over
// the rows of r appended since. An index that already covers r is
// returned without a write, which keeps a sealed relation's probes
// read-only.
func (r *Relation) index(c int) map[uint32][]int32 {
	st, n := r.store(), r.Len()
	if st.idx == nil {
		st.idx = make([]colIndex, r.arity)
	}
	ix := &st.idx[c]
	if ix.m == nil {
		ix.m = make(map[uint32][]int32, n)
	}
	for ; ix.n < n; ix.n++ {
		id := r.rowID(ix.n, c)
		ix.m[id] = append(ix.m[id], int32(ix.n))
	}
	return ix.m
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
// relation: the decoded rows, the per-column row indexes, the
// memoized sorted order, and the columnar view with its per-column
// indexes and, once the relation is large enough for the batch
// executor's merge join (mergeMinRows) to read them, its sorted runs.
// After Seal, read accessors (Lookup, LookupEach, Tuples, Each,
// Contains, SubsetOf, Equal, Clone, the batch executor's columnar
// probes and the batch sink's row-store dedup probes) perform no
// in-place memoization, so a sealed relation that is never mutated
// again may be shared read-only across goroutines — the loophole the
// shard-resident runtime uses to share one All relation across every
// node state instead of materializing n copies. Extend never grows a
// sealed store in place: each goroutine's first Extend copies. Mutating
// a sealed relation is permitted (memos are maintained or rebuilt as
// usual) but forfeits the concurrent-read guarantee.
func (r *Relation) Seal() {
	r.materialize()
	for c := 0; c < r.arity; c++ {
		r.index(c)
	}
	r.Tuples()
	cv := r.columns()
	for c := 0; c < r.arity; c++ {
		cv.index(c)
		if cv.n >= mergeMinRows {
			cv.sortedRun(c)
		}
	}
	r.store().sealed = true
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
			r.mutable()
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
	r.mutable()
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
