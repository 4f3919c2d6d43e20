// Package build is the transducer construction library: every
// transducer the paper builds in its examples, lemmas and theorems,
// ready to place on a network with declnet/run. It also carries the
// named catalogue backing the command-line tools.
//
// The constructions split by what they are allowed to know:
//
//   - Oblivious (no Id, no All): TransitiveClosure, EqualitySelection,
//     Flood, MonotoneStreaming, DatalogStreaming, WhileTransducer —
//     these compute monotone queries coordination-freely.
//   - Reading All only: PingIdentity, EitherNonempty — topology-aware
//     but anonymous.
//   - Reading Id and All: Multicast, CollectThenCompute, Emptiness,
//     EvenCardinality — full coordination, buying completion
//     detection and with it arbitrary (non-monotone) queries.
//
// The CALM analyses in declnet/analyze make this split precise.
package build

import (
	idatalog "declnet/internal/datalog"
	idist "declnet/internal/dist"
	ifact "declnet/internal/fact"
	iquery "declnet/internal/query"
	iregistry "declnet/internal/registry"
	itransducer "declnet/internal/transducer"
	iwhile "declnet/internal/while"
)

// TransitiveClosure returns the Example 3 transducer: distributed
// transitive closure of a binary relation S, written entirely in FO.
// Oblivious, inflationary, monotone.
func TransitiveClosure() *itransducer.Transducer { return idist.TransitiveClosure() }

// EqualitySelection returns the Example 3 selection σ_{1=2}(S),
// streamed obliviously.
func EqualitySelection() *itransducer.Transducer { return idist.EqualitySelection() }

// FirstElement returns the Example 2 transducer, which outputs the
// first element delivered to a node: the paper's inconsistent
// specimen (its output depends on the scheduler).
func FirstElement() *itransducer.Transducer { return idist.FirstElement() }

// RelayOnly returns the Example 4 transducer, which outputs only
// relayed elements: consistent on each network but not
// network-topology independent (the single-node output is empty).
func RelayOnly() *itransducer.Transducer { return idist.RelayOnly() }

// PingIdentity returns the Example 15 transducer: it computes the
// monotone identity query yet is not coordination-free — freeness is
// a property of programs, not queries.
func PingIdentity() *itransducer.Transducer { return idist.PingIdentity() }

// EitherNonempty returns the §5 transducer for "A or B nonempty",
// whose coordination-freeness witness must separate A from B.
func EitherNonempty() *itransducer.Transducer { return idist.EitherNonempty() }

// Emptiness returns the Example 10 transducer for the non-monotone
// emptiness query; it must coordinate (reads Id and All).
func Emptiness() *itransducer.Transducer { return idist.Emptiness() }

// EvenCardinality returns the Corollary 8 transducer computing the
// parity of |S| — beyond while on unordered inputs, computable
// distributedly via completion certificates.
func EvenCardinality() (*itransducer.Transducer, error) { return idist.EvenCardinality() }

// Gossip returns the one-hop gossip transducer driving the E20
// node-count scaling benchmarks: every node broadcasts its own
// identifier and outputs the pairs (own id, heard id). Monotone,
// oblivious, and quiescent in O(1) rounds at any network size.
func Gossip() *itransducer.Transducer { return idist.Gossip() }

// Flood returns the Lemma 5(2) transducer: oblivious replication of
// the input over the given schema, with an optional monotone output
// query (nil for none) evaluated continuously on the collected
// fragment.
func Flood(in ifact.Schema, out iquery.Query, outArity int) (*itransducer.Transducer, error) {
	return idist.Flood(in, out, outArity)
}

// Multicast returns the Lemma 5(1) transducer: replication WITH
// completion detection. When a node raises the nullary memory flag
// Ready, every node holds the full instance; the acknowledgement
// traffic is the measured price of that knowledge.
func Multicast(in ifact.Schema, out iquery.Query, outArity int) (*itransducer.Transducer, error) {
	return idist.Multicast(in, out, outArity)
}

// CollectThenCompute returns the Theorem 6(1) transducer: collect the
// complete input with certificates, then evaluate an arbitrary
// computable query q — monotone or not — on it.
func CollectThenCompute(in ifact.Schema, q iquery.Query) (*itransducer.Transducer, error) {
	return idist.CollectThenCompute(in, q)
}

// MonotoneStreaming returns the Theorem 6(2)/(4) transducer: an
// oblivious streaming evaluation of a syntactically monotone query
// over the input schema.
func MonotoneStreaming(in ifact.Schema, q iquery.Query) (*itransducer.Transducer, error) {
	return idist.MonotoneStreaming(in, q)
}

// DatalogStreaming returns the Theorem 6(5) transducer: a positive
// Datalog program used directly as the transducer language, streaming
// its answer predicate.
func DatalogStreaming(p *idatalog.Program, ans string) (*itransducer.Transducer, error) {
	return idist.DatalogStreaming(p, ans)
}

// WhileTransducer compiles a while-program to an FO-transducer per
// Lemma 5(3): one instruction per heartbeat, every query FO (loop
// conditions and assignment queries composed over a copy of the
// store, each run only when the program counter reaches it), output
// emitted at the halt state, divergence — an empty loop body whose
// condition holds included — visible as a run that never quiesces.
func WhileTransducer(p *iwhile.Program, in ifact.Schema) (*itransducer.Transducer, error) {
	return idist.WhileTransducer(p, in)
}

// Dict is the interning-dictionary handle (see the root declnet
// package). Every construction here is dictionary-agnostic: a
// transducer's queries derive their output dictionary from the
// instance they are evaluated on, so the same transducer value runs
// against the process-default dictionary or any per-run one
// (run.Options.Dict) without rebuilding.
type Dict = ifact.Dict

// Collected reconstructs, from one node's state, the fragment of the
// global input the node has gathered through a replication substrate;
// tagged selects the Multicast/CollectThenCompute naming scheme over
// Flood's.
func Collected(state *ifact.Instance, in ifact.Schema, tagged bool) *ifact.Instance {
	return idist.Collected(state, in, tagged)
}

// CatalogEntry describes a named transducer of the catalogue.
type CatalogEntry = iregistry.Entry

// Catalog returns the named transducer catalogue backing the CLIs:
// every construction above under a short name, with its paper locus
// and expected input schema.
func Catalog() map[string]CatalogEntry { return iregistry.Transducers() }

// Names returns the catalogue names, sorted.
func Names() []string { return iregistry.Names() }

// Lookup builds the catalogued transducer with the given name; the
// error of an unknown name lists what is available.
func Lookup(name string) (*itransducer.Transducer, error) { return iregistry.Lookup(name) }
