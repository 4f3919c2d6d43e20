package declnet

import (
	"declnet/internal/fact"
	"declnet/internal/query"
	"declnet/internal/transducer"
)

// The relational data model (§2 of the paper). A Value is an atomic
// data element of the infinite universe dom; node identifiers are
// Values too. Facts are expressions R(a1,...,ak), Relations are finite
// sets of same-arity tuples, Instances are finite sets of facts, and a
// Schema maps relation names to arities.
type (
	// Value is an atomic data element of dom.
	Value = fact.Value
	// Tuple is an ordered sequence of Values.
	Tuple = fact.Tuple
	// Fact is an expression R(a1,...,ak).
	Fact = fact.Fact
	// Relation is a finite set of tuples of one arity.
	Relation = fact.Relation
	// Instance is a database instance: a finite set of facts.
	Instance = fact.Instance
	// Schema maps relation names to arities.
	Schema = fact.Schema
)

// Dict is an interning-dictionary handle: the mapping from Values to
// the dense uint32 IDs all relational storage is keyed by. The
// package-level constructors (NewInstance, NewRelation, FromFacts)
// use one process-default dictionary — source-compatible with every
// pre-handle caller — while per-run dictionaries (NewDict, threaded
// through run.Options.Dict) isolate a run's interned universe so
// dropping the handle reclaims it. Internally a Dict is sharded by
// value hash: fresh-ID assignment contends per shard, and loads never
// lock. Values interned in different Dicts are unrelated; mixing them
// in one set operation is a checked error, with Instance.Rekey /
// Relation.Rekey as the sanctioned re-encode path.
type Dict = fact.Dict

// NewDict returns a fresh, empty interning dictionary with the
// default shard count.
func NewDict() *Dict { return fact.NewDict() }

// DefaultDict returns the process-default interning dictionary — the
// one behind the package-level constructors and Intern.
func DefaultDict() *Dict { return fact.DefaultDict() }

// NewFact builds the fact rel(args...).
func NewFact(rel string, args ...Value) Fact { return fact.NewFact(rel, args...) }

// NewInstance returns an empty database instance.
func NewInstance() *Instance { return fact.NewInstance() }

// FromFacts builds an instance holding exactly the given facts.
func FromFacts(facts ...Fact) *Instance { return fact.FromFacts(facts...) }

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation { return fact.NewRelation(arity) }

// Union returns a new instance containing the facts of both arguments.
func Union(a, b *Instance) *Instance { return fact.Union(a, b) }

// Intern pre-loads a value into the process-default interning
// dictionary and returns its dense ID (it delegates to
// DefaultDict().Intern; per-run dictionaries have the same method).
// All relational storage is keyed by interned IDs; loaders that
// generate values in a deterministic order can call Intern up front
// to fix the ID assignment.
func Intern(v Value) uint32 { return fact.Intern(v) }

// InternedValues reports the current size of the process-default
// interning dictionary — the number of distinct values the process
// has ever stored in a relation through it, a coarse gauge of the
// active universe. Per-run dictionaries report theirs via Dict.Len.
func InternedValues() int { return fact.InternedValues() }

// Query is a k-ary database query over some schema — the abstract
// local language L the transducer model is parameterized by. The
// declnet/fo, declnet/datalog and declnet/while packages provide
// concrete query languages; Func wraps any Go function as a query
// (the computationally complete language of Theorem 6(1)).
type Query = query.Query

// Func is a query implemented by an arbitrary Go function, with
// trusted relation-read and monotonicity annotations.
type Func = query.Func

// NewFunc wraps f as a query named name of the given arity. reads
// lists the relations f consults; monotone annotates whether the
// query is monotone by construction.
func NewFunc(name string, arity int, reads []string, monotone bool, f func(*Instance) (*Relation, error)) Func {
	return query.NewFunc(name, arity, reads, monotone, f)
}

// EmptyQuery is the query returning the empty k-ary relation on every
// input — the default for unspecified transducer queries.
type EmptyQuery = query.Empty

// Relational transducers (§2.1): a transducer schema splits relations
// into input, message and memory parts over the implicit system
// schema {Id/1, All/1}, and the transducer's send, insert, delete and
// output queries drive the deterministic local transition relation.
type (
	// Transducer is an abstract relational transducer.
	Transducer = transducer.Transducer
	// TransducerSchema is the schema (Sin, Smsg, Smem, k) of a
	// transducer; the system schema {Id/1, All/1} is implicit.
	TransducerSchema = transducer.Schema
	// Builder assembles a transducer incrementally; it is the
	// ergonomic front door for defining custom transducers.
	Builder = transducer.Builder
	// Effect is the result of one local transducer transition.
	Effect = transducer.Effect
)

// System relation names: every node's state contains Id (its own
// identifier) and All (the set of all nodes). Reading them is exactly
// what the CALM analyses charge as coordination.
const (
	SysId  = transducer.SysId
	SysAll = transducer.SysAll
)

// NewBuilder starts a transducer builder with the given name and
// input schema. Declare message and memory relations with Msg and
// Mem, attach queries with Snd, Ins, Del and Out, then Build.
func NewBuilder(name string, in Schema) *Builder { return transducer.NewBuilder(name, in) }

// NewTransducer validates and returns a transducer assembled from
// explicit query maps; nil maps and entries behave as empty queries.
func NewTransducer(name string, schema TransducerSchema, snd, ins, del map[string]Query, out Query) (*Transducer, error) {
	return transducer.New(name, schema, snd, ins, del, out)
}
