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
// is mapped to a dense uint32 ID by a process-global dictionary
// (intern.go), tuples are keyed by their packed ID sequences, and
// relations are hash sets over those packed keys with lazily built
// per-column hash indexes (Lookup) that the join-based evaluators in
// packages fo and datalog bind against. The string-typed API is a thin
// surface over the interned representation.
package fact

import (
	"encoding/binary"
	"fmt"
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

// Relation is a finite set of tuples of a fixed arity, stored as a
// hash set over packed interned-ID keys. The zero value is not usable;
// construct with NewRelation (process-default dictionary) or
// Dict.NewRelation. Like the rest of the data model, Relations are not
// safe for concurrent use: reads memoize (column indexes, sorted
// order) in place. Only the interning dictionary is shared safely
// across goroutines.
type Relation struct {
	// dict is the interning dictionary the relation's packed keys are
	// encoded in. Every derived relation (Clone, Minus, Intersect,
	// ApplyPermutationRel) inherits it; set operations across different
	// dictionaries are checked errors (see mustShareDict).
	dict   *Dict
	arity  int
	tuples map[string]Tuple

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

// NewRelation returns an empty relation of the given arity over the
// process-default dictionary.
func NewRelation(arity int) *Relation { return defaultDict.NewRelation(arity) }

// NewRelation returns an empty relation of the given arity interning
// through d.
func (d *Dict) NewRelation(arity int) *Relation {
	return &Relation{dict: d, arity: arity, tuples: make(map[string]Tuple)}
}

// Dict returns the relation's interning dictionary — the handle every
// derived relation must be built over. Evaluators thread it instead
// of reaching for the process default.
func (r *Relation) Dict() *Dict { return r.dict }

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples in the relation.
func (r *Relation) Len() int { return len(r.tuples) }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return len(r.tuples) == 0 }

// addKeyed inserts a stored tuple under its packed key, maintaining
// any built indexes.
func (r *Relation) addKeyed(k string, t Tuple) {
	r.tuples[k] = t
	r.sorted = nil
	for c, m := range r.idx {
		if m != nil {
			id := keyID(k, c)
			m[id] = append(m[id], t)
		}
	}
	if r.cview != nil {
		r.cview.appendRow(k, r.arity)
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
	if _, ok := r.tuples[string(k)]; ok {
		return false
	}
	r.addKeyed(string(k), t.Clone())
	return true
}

// Remove deletes a tuple, reporting whether it was present. Built
// column indexes are dropped (deletion is rare; the paper's
// inflationary transducers never delete).
func (r *Relation) Remove(t Tuple) bool {
	var scratch [64]byte
	k, ok := r.dict.packTupleLookup(scratch[:0], t)
	if !ok {
		return false
	}
	if _, ok := r.tuples[string(k)]; !ok {
		return false
	}
	delete(r.tuples, string(k))
	r.idx = nil
	r.cview = nil
	r.sorted = nil
	return true
}

// Contains reports whether the tuple is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	var scratch [64]byte
	k, ok := r.dict.packTupleLookup(scratch[:0], t)
	if !ok {
		return false
	}
	_, ok = r.tuples[string(k)]
	return ok
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
	if r.idx == nil {
		r.idx = make([]map[uint32][]Tuple, r.arity)
	}
	m := r.idx[col]
	if m == nil {
		m = make(map[uint32][]Tuple, len(r.tuples))
		for k, t := range r.tuples {
			cid := keyID(k, col)
			m[cid] = append(m[cid], t)
		}
		r.idx[col] = m
	}
	return m[id]
}

// Tuples returns the tuples in deterministic (column-wise value)
// order. The returned slice and tuples are shared storage and must not
// be modified; the sort is memoized until the next mutation.
func (r *Relation) Tuples() []Tuple {
	if r.sorted == nil {
		out := make([]Tuple, 0, len(r.tuples))
		for _, t := range r.tuples {
			out = append(out, t)
		}
		sort.Slice(out, func(a, b int) bool { return out[a].Less(out[b]) })
		r.sorted = out
	}
	return r.sorted
}

// Each calls fn for every tuple, in unspecified order, stopping early
// if fn returns false.
func (r *Relation) Each(fn func(Tuple) bool) {
	for _, t := range r.tuples {
		if !fn(t) {
			return
		}
	}
}

// Clone returns a copy of the relation over the same dictionary.
// Stored tuples are shared: they are immutable by convention (Add
// stores a private copy and no accessor exposes them for writing).
// Column indexes are not copied.
func (r *Relation) Clone() *Relation {
	c := &Relation{dict: r.dict, arity: r.arity, tuples: make(map[string]Tuple, len(r.tuples))}
	for k, t := range r.tuples {
		c.tuples[k] = t
	}
	return c
}

// Rekey re-encodes the relation into the destination dictionary: every
// stored tuple's values are re-interned through dst and the packed
// keys rebuilt. It is the sanctioned path across dictionary
// boundaries — serialization rendezvous, moving a per-run result into
// a longer-lived dictionary — and it round-trips bit-identically:
// rekeying back into the original dictionary reproduces the original
// packed keys, because interning is idempotent per dictionary. A
// same-dictionary Rekey degenerates to Clone.
func (r *Relation) Rekey(dst *Dict) *Relation {
	if dst == r.dict {
		return r.Clone()
	}
	out := dst.NewRelation(r.arity)
	for _, t := range r.tuples {
		var scratch [64]byte
		k := dst.packTuple(scratch[:0], t)
		if _, ok := out.tuples[string(k)]; !ok {
			out.addKeyed(string(k), t)
		}
	}
	return out
}

// Seal pre-builds every lazily memoized read structure of the
// relation: the per-column tuple indexes, the memoized sorted order,
// and the columnar view with its per-column indexes, sorted runs and
// whole-row run. After Seal, read accessors (Lookup, Tuples, Each,
// Contains and the batch executor's columnar probes) perform no
// in-place memoization, so a sealed relation that is never mutated
// again may be shared read-only across goroutines — the loophole the
// shard-resident runtime uses to share one All relation across every
// node state instead of materializing n copies. Mutating a sealed
// relation is permitted (memos are maintained or rebuilt as usual)
// but forfeits the concurrent-read guarantee.
func (r *Relation) Seal() {
	if r.idx == nil {
		r.idx = make([]map[uint32][]Tuple, r.arity)
	}
	for c := 0; c < r.arity; c++ {
		if r.idx[c] != nil {
			continue
		}
		m := make(map[uint32][]Tuple, len(r.tuples))
		for k, t := range r.tuples {
			cid := keyID(k, c)
			m[cid] = append(m[cid], t)
		}
		r.idx[c] = m
	}
	r.Tuples()
	cv := r.columns()
	for c := 0; c < r.arity; c++ {
		cv.index(c)
		cv.sortedRun(c)
	}
	cv.keyRun()
}

// UnionWith adds all tuples of s into r; s must have the same arity
// and the same interning dictionary (keys move between the relations
// without re-encoding; use Rekey to cross dictionaries).
func (r *Relation) UnionWith(s *Relation) {
	if s == nil {
		return
	}
	if s.arity != r.arity {
		panic("fact: union of relations with different arities")
	}
	mustShareDict(r.dict, s.dict, "UnionWith")
	for k, t := range s.tuples {
		if _, ok := r.tuples[k]; !ok {
			r.addKeyed(k, t)
		}
	}
}

// Minus returns r \ s as a new relation over r's dictionary; r and s
// must share a dictionary.
func (r *Relation) Minus(s *Relation) *Relation {
	out := r.dict.NewRelation(r.arity)
	if s != nil {
		mustShareDict(r.dict, s.dict, "Minus")
	}
	for k, t := range r.tuples {
		if s == nil {
			out.tuples[k] = t
			continue
		}
		if _, ok := s.tuples[k]; !ok {
			out.tuples[k] = t
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
	for k, t := range r.tuples {
		if _, ok := s.tuples[k]; ok {
			out.tuples[k] = t
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
	if r.arity != s.arity || len(r.tuples) != len(s.tuples) {
		return false
	}
	if r.dict != s.dict {
		return r.subsetRekeyed(s)
	}
	for k := range r.tuples {
		if _, ok := s.tuples[k]; !ok {
			return false
		}
	}
	return true
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
	for k := range r.tuples {
		if _, ok := s.tuples[k]; !ok {
			return false
		}
	}
	return true
}

// subsetRekeyed is the cross-dictionary membership sweep: each of r's
// stored tuples is re-encoded under s's dictionary (lookup-only — a
// value never interned in s's dictionary proves absence) and probed
// against s's key set.
func (r *Relation) subsetRekeyed(s *Relation) bool {
	var scratch [64]byte
	for _, t := range r.tuples {
		k, ok := s.dict.packTupleLookup(scratch[:0], t)
		if !ok {
			return false
		}
		if _, ok := s.tuples[string(k)]; !ok {
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
