package fact

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
)

// A Dict is an interning dictionary handle: it maps every Value stored
// through it to a dense uint32 ID. Two relations (or two instances)
// built over the same Dict agree on every ID, which makes tuple keys
// pure ID sequences and lets set operations (union, minus, clone) move
// packed keys between relations without re-encoding. IDs from
// different Dicts are unrelated; mixing them is a checked error (see
// mustShareDict) with Rekey as the sanctioned re-encode path.
//
// Internally the dictionary is sharded by value hash: each shard owns
// a disjoint slice of the ID space (ID = slot<<shardBits | shard) with
// its own assignment mutex, so concurrent interning of fresh values
// from many goroutines contends only per shard instead of on one
// process-global lock — the last cross-shard serialization point of
// the parallel runtime. Each shard stores its values in one backing
// array indexed by slot and finds them through an open-addressing
// table of packed (hash, slot) entries. Both sit in one generation,
// published through an atomic pointer and replaced only when the
// shard doubles, so value→ID and ID→value reads never lock and a
// fresh value allocates nothing until its shard grows. The 32-bit
// FNV-1a hash of a value is computed once per call: its low bits pick
// the shard, and the whole hash is the table entry's tag and,
// multiplicatively mixed, its home entry.
//
// A Dict only grows. The paper's dom is an infinite universe, but any
// single run touches finitely many values; a dictionary over the
// touched values is exactly the compact state kernel the simulator
// needs. A run executed over its own Dict (see the run facade's Dict
// option) interns every run-local value there, and dropping the handle
// after the run makes the whole universe of that run collectable — the
// process-default dictionary does not accrete every value any run ever
// touched.
type Dict struct {
	shards []dictShard
	// shardBits is log2(len(shards)); the shard index occupies the low
	// shardBits of every ID, the per-shard slot the high bits.
	shardBits uint
}

// dictShard is one lock domain of a Dict. Reads load gen and never
// lock; mu serializes fresh-slot assignment and growth (and nothing
// else). A shard that has never interned a value has a nil gen and
// owns no memory beyond its own fields.
type dictShard struct {
	mu sync.Mutex
	// gen is the shard's current storage generation. A writer replaces
	// it only when the value array is full, with one of twice the
	// capacity that holds copies of every value and entry.
	gen atomic.Pointer[dictGen]
	// n is the number of values interned in the shard, stored after
	// the value's entry is published.
	n atomic.Uint32
}

// dictGen is one storage generation of a shard: the values by slot
// and a linear-probing table over them. Each table entry packs a
// value's 32-bit hash (the tag, high half) and slot+1 (low half) into
// one word; 0 marks an empty entry. The table has twice as many
// entries as vals has room for values, so the load never exceeds one
// half. Slots are filled in first-seen order and written once: a
// writer stores the value before the entry that names it, so a reader
// that loads an entry finds its value in the same generation's vals.
type dictGen struct {
	vals []Value
	ents []atomic.Uint64
	// shift is 64 - log2(len(ents)): the home entry of hash h is the
	// top bits of h times a Fibonacci constant.
	shift uint
}

// firstCap is the value capacity of a shard's first generation.
const firstCap = 8

// home returns the table entry at which probes for hash h start.
func (g *dictGen) home(h uint32) int {
	return int(uint64(h) * 0x9E3779B97F4A7C15 >> g.shift)
}

// find returns the slot of v, whose hash is h, if the generation
// holds it.
func (g *dictGen) find(v Value, h uint32) (uint32, bool) {
	mask := len(g.ents) - 1
	for i := g.home(h); ; i = (i + 1) & mask {
		e := g.ents[i].Load()
		if e == 0 {
			return 0, false
		}
		if uint32(e>>32) == h && g.vals[uint32(e)-1] == v {
			return uint32(e) - 1, true
		}
	}
}

// place stores the packed entry e at the first empty entry of its
// probe sequence. Only a shard's writer calls it, under the mutex.
func (g *dictGen) place(e uint64) {
	mask := len(g.ents) - 1
	i := g.home(uint32(e >> 32))
	for g.ents[i].Load() != 0 {
		i = (i + 1) & mask
	}
	g.ents[i].Store(e)
}

// find returns the slot of v (hash h) in the shard, without locking.
func (sh *dictShard) find(v Value, h uint32) (uint32, bool) {
	g := sh.gen.Load()
	if g == nil {
		return 0, false
	}
	return g.find(v, h)
}

// add assigns v (hash h), absent from the shard, the next free slot
// and returns it. The caller holds mu.
func (sh *dictShard) add(v Value, h uint32) uint32 {
	g := sh.gen.Load()
	slot := sh.n.Load()
	if g == nil || int(slot) == len(g.vals) {
		g = sh.grow(g)
	}
	g.vals[slot] = v
	g.place(uint64(h)<<32 | uint64(slot+1))
	sh.n.Store(slot + 1)
	return slot
}

// grow publishes a generation of twice old's capacity (firstCap for
// the first) holding copies of all of old's values and entries, and
// returns it. Entries carry their hash, so rehashing reads no value.
func (sh *dictShard) grow(old *dictGen) *dictGen {
	c := firstCap
	if old != nil {
		c = 2 * len(old.vals)
	}
	g := &dictGen{
		vals:  make([]Value, c),
		ents:  make([]atomic.Uint64, 2*c),
		shift: uint(64 - bits.Len(uint(2*c-1))),
	}
	if old != nil {
		copy(g.vals, old.vals)
		for i := range old.ents {
			if e := old.ents[i].Load(); e != 0 {
				g.place(e)
			}
		}
	}
	sh.gen.Store(g)
	return g
}

// defaultDictShards is the shard count of NewDict: enough lock
// domains that 8 workers interning fresh values rarely collide, small
// enough that an empty Dict stays cheap.
const defaultDictShards = 16

// NewDict returns a fresh, empty interning dictionary with the
// default shard count. Construction is confined by the nodict repo
// linter to the root facade, the run-facade options and _test files —
// everything else receives its Dict by inheritance from the values it
// already holds (Relation.Dict, Instance.Dict).
func NewDict() *Dict { return NewDictShards(defaultDictShards) }

// NewDictShards returns a Dict with the given shard count, rounded up
// to a power of two (minimum 1). A 1-shard Dict reproduces the
// pre-sharding process-global design exactly — one assignment mutex,
// densely sequential IDs — and is the single-lock baseline of the E21
// intern benchmark. Shards allocate their storage on first intern, so
// an empty Dict costs its shard array alone.
func NewDictShards(n int) *Dict {
	shards := 1
	bits := uint(0)
	for shards < n {
		shards <<= 1
		bits++
	}
	return &Dict{shards: make([]dictShard, shards), shardBits: bits}
}

// defaultDict is the process-default dictionary: the compatibility
// shim behind the package-level constructors (NewRelation,
// NewInstance, FromFacts) and the root declnet.Intern facade. Callers
// that never ask for a per-run Dict get exactly the pre-handle
// behavior — one process-wide ID space.
var defaultDict = NewDict()

// DefaultDict returns the process-default dictionary. Like NewDict,
// calls are confined by the nodict linter: handles flow by
// inheritance, and only the root facade, the run options and tests
// may reach for the process-wide one explicitly.
func DefaultDict() *Dict { return defaultDict }

// hash is the 32-bit FNV-1a hash of v. Its low bits select v's shard;
// being a pure function of the value bytes, shard assignment — and
// therefore ID assignment under a deterministic intern order — is
// reproducible run to run.
func hash(v Value) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(v); i++ {
		h ^= uint32(v[i])
		h *= prime32
	}
	return h
}

// intern returns the dense ID of v, assigning the next free slot of
// v's shard on first sight.
func (d *Dict) intern(v Value) uint32 {
	h := hash(v)
	si := h & uint32(len(d.shards)-1)
	sh := &d.shards[si]
	if slot, ok := sh.find(v, h); ok {
		return slot<<d.shardBits | si
	}
	sh.mu.Lock()
	slot, ok := sh.find(v, h)
	if !ok {
		slot = sh.add(v, h)
	}
	sh.mu.Unlock()
	return slot<<d.shardBits | si
}

// lookup returns the ID of v if it has ever been interned in d. A
// miss proves the value occurs in no relation over d, which turns
// many membership tests into a single table probe.
func (d *Dict) lookup(v Value) (uint32, bool) {
	h := hash(v)
	si := h & uint32(len(d.shards)-1)
	slot, ok := d.shards[si].find(v, h)
	if !ok {
		return 0, false
	}
	return slot<<d.shardBits | si, true
}

// value returns the value with the given ID. IDs only come from
// intern on the same Dict, and a slot's value is stored before intern
// returns its ID, so the shard's current generation holds it.
func (d *Dict) value(id uint32) Value {
	sh := &d.shards[id&uint32(len(d.shards)-1)]
	return sh.gen.Load().vals[id>>d.shardBits]
}

// idSpace returns one past the largest ID d has assigned so far: an
// ID is slot<<shardBits | shard, so the space spans the fullest
// shard's slots times the shard count.
func (d *Dict) idSpace() int {
	n := 0
	for i := range d.shards {
		n = max(n, int(d.shards[i].n.Load()))
	}
	return n << d.shardBits
}

// Len reports the number of values interned in d (a coarse gauge of
// the dictionary's universe; exported for diagnostics, the reclaim
// tests and the E21 benchmarks).
func (d *Dict) Len() int {
	n := 0
	for i := range d.shards {
		n += int(d.shards[i].n.Load())
	}
	return n
}

// Intern pre-loads v into the dictionary and returns its dense ID.
// Callers that generate values in a deterministic order (input
// loaders, experiment generators) can use it to fix ID assignment up
// front. Safe for concurrent use.
func (d *Dict) Intern(v Value) uint32 { return d.intern(v) }

// InternedValues reports the current size of the process-default
// interning dictionary (exported for diagnostics and benchmarks; the
// per-run counterpart is Dict.Len).
func InternedValues() int { return defaultDict.Len() }

// Intern pre-loads v into the process-default dictionary; the
// per-run counterpart is Dict.Intern.
func Intern(v Value) uint32 { return defaultDict.intern(v) }

// packTuple appends the 4-byte big-endian IDs of the tuple's values
// to buf and returns the extended slice. The result is the relation
// key of the tuple under d: no escaping, fixed width, and decodable
// back to IDs. Keys are only meaningful within their Dict.
func (d *Dict) packTuple(buf []byte, t Tuple) []byte {
	for _, v := range t {
		buf = binary.BigEndian.AppendUint32(buf, d.intern(v))
	}
	return buf
}

// packTupleLookup is packTuple without inserting unseen values; ok is
// false when some value was never interned in d (the tuple is then in
// no relation over d).
func (d *Dict) packTupleLookup(buf []byte, t Tuple) ([]byte, bool) {
	for _, v := range t {
		id, ok := d.lookup(v)
		if !ok {
			return buf, false
		}
		buf = binary.BigEndian.AppendUint32(buf, id)
	}
	return buf, true
}

// mustShareDict panics unless a and b are handles on the same
// dictionary: packed keys and interned IDs are only comparable within
// one Dict, so silently mixing them would corrupt set semantics. The
// message names Rekey, the sanctioned re-encode path.
func mustShareDict(a, b *Dict, op string) {
	if a != b {
		panic("fact: " + op + " mixes relations of different interning dictionaries (re-encode with Rekey first)")
	}
}
