package fact

import (
	"encoding/binary"
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
// the parallel runtime. The read path keeps the established contract
// per shard: value→ID hits go through a sync.Map and ID→value lookups
// index an immutable-prefix slice published through an atomic pointer,
// so loads never lock.
//
// A Dict only grows. The paper's dom is an infinite universe, but any
// single run touches finitely many values; a dictionary over the
// touched values is exactly the compact state kernel the simulator
// needs. What PR 10 adds is lifetime: a run executed over its own Dict
// (see the run facade's Dict option) interns every run-local value
// there, and dropping the handle after the run makes the whole
// universe of that run collectable — the process-default dictionary no
// longer accretes every value any run ever touched.
type Dict struct {
	shards []dictShard
	// shardBits is log2(len(shards)); the shard index occupies the low
	// shardBits of every ID, the per-shard slot the high bits.
	shardBits uint
}

// dictShard is one lock domain of a Dict: a value→ID map with
// lock-free loads, an atomically published ID→value slice, and a
// mutex serializing fresh-slot assignment (and nothing else).
type dictShard struct {
	mu sync.Mutex
	// ids maps Value → uint32 (the full, shard-encoded ID). Loads are
	// lock-free; stores happen under mu, after the value is in place in
	// the published slice, so a successful load always finds the value
	// via vals as well.
	ids sync.Map
	// vals points at the shard's values-by-slot slice. The prefix
	// vals[:len] is immutable: a slot is written once, before the ID is
	// published in ids, and appends replace the header (and possibly
	// the backing array) rather than mutating published slots.
	vals atomic.Pointer[[]Value]
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
// intern benchmark.
func NewDictShards(n int) *Dict {
	shards := 1
	bits := uint(0)
	for shards < n {
		shards <<= 1
		bits++
	}
	d := &Dict{shards: make([]dictShard, shards), shardBits: bits}
	for i := range d.shards {
		empty := make([]Value, 0, 64)
		d.shards[i].vals.Store(&empty)
	}
	return d
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

// shardOf hashes v to its owning shard index (FNV-1a; the low bits
// select). The hash is a pure function of the value bytes, so shard
// assignment — and therefore ID assignment under a deterministic
// intern order — is reproducible run to run.
func (d *Dict) shardOf(v Value) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(v); i++ {
		h ^= uint32(v[i])
		h *= prime32
	}
	return h & uint32(len(d.shards)-1)
}

// intern returns the dense ID of v, assigning the next free slot of
// v's shard on first sight.
func (d *Dict) intern(v Value) uint32 {
	si := d.shardOf(v)
	sh := &d.shards[si]
	if id, ok := sh.ids.Load(v); ok {
		return id.(uint32)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.ids.Load(v); ok {
		return id.(uint32)
	}
	cur := *sh.vals.Load()
	id := uint32(len(cur))<<d.shardBits | si
	next := append(cur, v)
	sh.vals.Store(&next)
	// Publish the ID only after the slot is readable through vals, so
	// any goroutine that observes the ID can resolve it back.
	sh.ids.Store(v, id)
	return id
}

// lookup returns the ID of v if it has ever been interned in d. A
// miss proves the value occurs in no relation over d, which turns
// many membership tests into a single map probe.
func (d *Dict) lookup(v Value) (uint32, bool) {
	id, ok := d.shards[d.shardOf(v)].ids.Load(v)
	if !ok {
		return 0, false
	}
	return id.(uint32), true
}

// value returns the value with the given ID. IDs only come from
// intern on the same Dict, so the decoded slot is always within the
// published prefix of its shard's slice.
func (d *Dict) value(id uint32) Value {
	sh := &d.shards[id&uint32(len(d.shards)-1)]
	return (*sh.vals.Load())[id>>d.shardBits]
}

// idSpace returns one past the largest ID d has assigned so far: an
// ID is slot<<shardBits | shard, so the space spans the fullest
// shard's slots times the shard count.
func (d *Dict) idSpace() int {
	n := 0
	for i := range d.shards {
		n = max(n, len(*d.shards[i].vals.Load()))
	}
	return n << d.shardBits
}

// Len reports the number of values interned in d (a coarse gauge of
// the dictionary's universe; exported for diagnostics, the reclaim
// tests and the E21 benchmarks).
func (d *Dict) Len() int {
	n := 0
	for i := range d.shards {
		n += len(*d.shards[i].vals.Load())
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
