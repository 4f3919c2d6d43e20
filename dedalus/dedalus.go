// Package dedalus exposes the Dedalus substrate of §8: temporal
// Datalog with deductive, inductive and asynchronous rules, the
// Theorem 18 compiler from Turing machines (see declnet/tm) to
// eventually consistent Dedalus programs, and distributed execution
// over networks of peers exchanging their input fragments.
package dedalus

import (
	idatalog "declnet/internal/datalog"
	idedalus "declnet/internal/dedalus"
	ifact "declnet/internal/fact"
	inetwork "declnet/internal/network"
	itm "declnet/internal/tm"
)

type (
	// Program is a Dedalus program.
	Program = idedalus.Program
	// Rule is one Dedalus rule with its temporal kind.
	Rule = idedalus.Rule
	// Kind is the temporal kind of a rule: deductive, inductive or
	// asynchronous.
	Kind = idedalus.Kind
	// TemporalInput maps timestamps to the instances arriving then.
	TemporalInput = idedalus.TemporalInput
	// Options configures a single-site run.
	Options = idedalus.Options
	// Trace is the outcome of a single-site run.
	Trace = idedalus.Trace
	// DistOptions configures a distributed run.
	DistOptions = idedalus.DistOptions
	// DistTrace is the outcome of a distributed run.
	DistTrace = idedalus.DistTrace
)

// AcceptPred is the nullary predicate a compiled Turing-machine
// program derives exactly when the machine accepts.
const AcceptPred = idedalus.AcceptPred

// New validates and returns a Dedalus program.
func New(rules ...Rule) (*Program, error) { return idedalus.New(rules...) }

// MustNew is New panicking on error.
func MustNew(rules ...Rule) *Program { return idedalus.MustNew(rules...) }

// D builds a deductive rule (same timestamp).
func D(head idatalog.Atom, body ...idatalog.Literal) Rule { return idedalus.D(head, body...) }

// I builds an inductive rule (next timestamp).
func I(head idatalog.Atom, body ...idatalog.Literal) Rule { return idedalus.I(head, body...) }

// A builds an asynchronous rule (nondeterministic future timestamp).
func A(head idatalog.Atom, body ...idatalog.Literal) Rule { return idedalus.A(head, body...) }

// Atom builds the atom pred(vars...) for rule construction.
func Atom(pred string, vars ...string) idatalog.Atom { return idedalus.Atom(pred, vars...) }

// CompileTM compiles a Turing machine to a Dedalus program per
// Theorem 18: the program simulates the machine in an eventually
// consistent way, deriving AcceptPred iff the machine accepts.
func CompileTM(m *itm.Machine) (*Program, error) { return idedalus.CompileTM(m) }

// DistRun executes the program on a network of peers, each holding a
// fragment of the input (§8's closing construction). The fragments are
// flooded on the transducer network runtime under the options' channel
// model, and each transition of a node evaluates one timestamp of that
// node's program with the delivered fact as its EDB arrival.
func DistRun(p *Program, net *inetwork.Network, partition map[ifact.Value]*ifact.Instance, opt DistOptions) (*DistTrace, error) {
	return idedalus.DistRun(p, net, partition, opt)
}
