// Package transducer implements the abstract relational transducer
// model of §2.1 of the paper: a transducer schema (Sin, Ssys, Smsg,
// Smem, k) and a collection of queries {Q_snd^R}, {Q_ins^R},
// {Q_del^R}, Q_out over the combined schema, together with the
// deterministic local transition relation
//
//	I, Ircv --Jout--> J, Jsnd
//
// including the conflict-resolution memory update formula (conflicting
// simultaneous inserts and deletes leave a tuple unchanged).
//
// Per the paper's proviso (§3), the system schema Ssys always consists
// of the unary relations Id (the node's own identifier) and All (the
// set of all nodes). The syntactic classes of §4 — oblivious,
// inflationary, monotone — are recognized here.
package transducer

import (
	"fmt"

	"declnet/internal/fact"
	"declnet/internal/query"
)

// System relation names (§3 proviso).
const (
	SysId  = "Id"
	SysAll = "All"
)

// SysSchema is the fixed system schema {Id/1, All/1}.
func SysSchema() fact.Schema { return fact.Schema{SysId: 1, SysAll: 1} }

// Schema is a transducer schema: disjoint input, message and memory
// schemas plus the output arity. The system schema is implicit.
type Schema struct {
	In  fact.Schema
	Msg fact.Schema
	Mem fact.Schema
	// OutArity is the arity k of the output relation.
	OutArity int
}

// Combined returns Sin ∪ Ssys ∪ Smsg ∪ Smem, the schema every
// transducer query reads.
func (s Schema) Combined() (fact.Schema, error) {
	return s.In.Union(SysSchema(), s.Msg, s.Mem)
}

// StateSchema returns Sin ∪ Ssys ∪ Smem: the schema of transducer
// states.
func (s Schema) StateSchema() (fact.Schema, error) {
	return s.In.Union(SysSchema(), s.Mem)
}

// Validate checks pairwise disjointness and that no user schema
// redeclares a system relation.
func (s Schema) Validate() error {
	parts := []struct {
		name string
		s    fact.Schema
	}{{"in", s.In}, {"msg", s.Msg}, {"mem", s.Mem}, {"sys", SysSchema()}}
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			if !parts[i].s.Disjoint(parts[j].s) {
				return fmt.Errorf("transducer: schemas %s and %s overlap", parts[i].name, parts[j].name)
			}
		}
	}
	if s.OutArity < 0 {
		return fmt.Errorf("transducer: negative output arity")
	}
	return nil
}

// Transducer is an abstract relational transducer: the queries
// Q_snd^R for message relations, Q_ins^R and Q_del^R for memory
// relations, and Q_out. Missing queries default to the empty query of
// the right arity, which in particular makes every transducer with no
// explicit deletion queries inflationary.
type Transducer struct {
	Schema Schema
	Snd    map[string]query.Query
	Ins    map[string]query.Query
	Del    map[string]query.Query
	Out    query.Query
	// Name identifies the transducer in traces and errors.
	Name string
}

// New validates and returns a transducer. Nil query maps are
// permitted; missing entries behave as empty queries.
func New(name string, schema Schema, snd, ins, del map[string]query.Query, out query.Query) (*Transducer, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	combined, err := schema.Combined()
	if err != nil {
		return nil, err
	}
	t := &Transducer{Schema: schema, Snd: snd, Ins: ins, Del: del, Out: out, Name: name}
	if t.Snd == nil {
		t.Snd = map[string]query.Query{}
	}
	if t.Ins == nil {
		t.Ins = map[string]query.Query{}
	}
	if t.Del == nil {
		t.Del = map[string]query.Query{}
	}
	if t.Out == nil {
		t.Out = query.Empty{K: schema.OutArity}
	}

	check := func(kind, rel string, q query.Query, wantArity int) error {
		if q == nil {
			return nil
		}
		if q.Arity() != wantArity {
			return fmt.Errorf("transducer %s: %s query for %s has arity %d, want %d", name, kind, rel, q.Arity(), wantArity)
		}
		for _, r := range q.Rels() {
			if !combined.Has(r) {
				return fmt.Errorf("transducer %s: %s query for %s reads %s outside combined schema %s", name, kind, rel, r, combined)
			}
		}
		return nil
	}
	for rel, q := range t.Snd {
		a := schema.Msg.Arity(rel)
		if a < 0 {
			return nil, fmt.Errorf("transducer %s: send query for undeclared message relation %s", name, rel)
		}
		if err := check("send", rel, q, a); err != nil {
			return nil, err
		}
	}
	for rel, q := range t.Ins {
		a := schema.Mem.Arity(rel)
		if a < 0 {
			return nil, fmt.Errorf("transducer %s: insert query for undeclared memory relation %s", name, rel)
		}
		if err := check("insert", rel, q, a); err != nil {
			return nil, err
		}
	}
	for rel, q := range t.Del {
		a := schema.Mem.Arity(rel)
		if a < 0 {
			return nil, fmt.Errorf("transducer %s: delete query for undeclared memory relation %s", name, rel)
		}
		if err := check("delete", rel, q, a); err != nil {
			return nil, err
		}
	}
	if err := check("output", "out", t.Out, schema.OutArity); err != nil {
		return nil, err
	}
	return t, nil
}

// MustNew is New panicking on error.
func MustNew(name string, schema Schema, snd, ins, del map[string]query.Query, out query.Query) *Transducer {
	t, err := New(name, schema, snd, ins, del, out)
	if err != nil {
		panic(err)
	}
	return t
}

// Effect is the result of one local transition: the new state, the
// messages sent and the tuples output.
//
// Identity contract of Firing.Step: Effect.State == state (the input
// pointer) exactly when the transition left the state's content
// unchanged, so callers decide "unchanged" with one pointer compare.
// Transducer.Step, the specification evaluator, always builds a fresh
// successor.
type Effect struct {
	State *fact.Instance
	Snd   *fact.Instance
	Out   *fact.Relation
}

// Step performs one local transition from state I reading the message
// instance Ircv: it evaluates every query on I' = I ∪ Ircv, leaves
// input and system relations untouched, and updates memory with the
// paper's conflict-resolution formula
//
//	J(R) = (Qins \ Qdel) ∪ (Qins ∩ Qdel ∩ I(R)) ∪ (I(R) \ (Qins ∪ Qdel)).
//
// Transitions are deterministic: the effect is a function of (I, Ircv).
func (t *Transducer) Step(state *fact.Instance, rcv *fact.Instance) (Effect, error) {
	// The combined instance I' shares the (immutable) state relations;
	// message relations are disjoint from the state schema, so they
	// can be installed directly.
	iPrime := state.ShallowClone()
	if rcv != nil {
		for _, n := range rcv.RelNames() {
			iPrime.SetRelation(n, rcv.Relation(n))
		}
	}

	snd := iPrime.Dict().NewInstance()
	for _, rel := range t.Schema.Msg.Names() {
		q := t.Snd[rel]
		if q == nil {
			continue
		}
		r, err := q.Eval(iPrime)
		if err != nil {
			return Effect{}, fmt.Errorf("transducer %s: send %s: %w", t.Name, rel, err)
		}
		snd.SetRelationOwned(rel, r)
	}

	out, err := t.Out.Eval(iPrime)
	if err != nil {
		return Effect{}, fmt.Errorf("transducer %s: output: %w", t.Name, err)
	}

	next := state.ShallowClone()
	for _, rel := range t.Schema.Mem.Names() {
		arity := t.Schema.Mem[rel]
		ins := iPrime.Dict().NewRelation(arity)
		del := iPrime.Dict().NewRelation(arity)
		if q := t.Ins[rel]; q != nil {
			r, err := q.Eval(iPrime)
			if err != nil {
				return Effect{}, fmt.Errorf("transducer %s: insert %s: %w", t.Name, rel, err)
			}
			ins = r
		}
		if q := t.Del[rel]; q != nil {
			r, err := q.Eval(iPrime)
			if err != nil {
				return Effect{}, fmt.Errorf("transducer %s: delete %s: %w", t.Name, rel, err)
			}
			del = r
		}
		old := state.RelationOr(rel, arity)
		updated := ins.Minus(del)                            // Qins \ Qdel
		updated.UnionWith(ins.Intersect(del).Intersect(old)) // conflicts keep old tuples
		updated.UnionWith(old.Minus(unionRel(ins, del)))     // untouched tuples persist
		next.SetRelationOwned(rel, updated)
	}
	return Effect{State: next, Snd: snd, Out: out}, nil
}

func unionRel(a, b *fact.Relation) *fact.Relation {
	u := a.Clone()
	u.UnionWith(b)
	return u
}

// queries returns every query of the transducer (nil entries skipped).
func (t *Transducer) queries() []query.Query {
	var qs []query.Query
	for _, q := range t.Snd {
		qs = append(qs, q)
	}
	for _, q := range t.Ins {
		qs = append(qs, q)
	}
	for _, q := range t.Del {
		qs = append(qs, q)
	}
	qs = append(qs, t.Out)
	return qs
}

// Oblivious reports whether the transducer never reads the system
// relations Id and All (§4): it is unaware of the network context. By
// Proposition 11, network-topology independent oblivious transducers
// are coordination-free.
func (t *Transducer) Oblivious() bool {
	for _, q := range t.queries() {
		if query.Mentions(q, SysId, SysAll) {
			return false
		}
	}
	return true
}

// UsesId reports whether some query reads the Id relation.
func (t *Transducer) UsesId() bool {
	for _, q := range t.queries() {
		if query.Mentions(q, SysId) {
			return true
		}
	}
	return false
}

// UsesAll reports whether some query reads the All relation.
func (t *Transducer) UsesAll() bool {
	for _, q := range t.queries() {
		if query.Mentions(q, SysAll) {
			return true
		}
	}
	return false
}

// Inflationary reports whether the transducer performs no deletions:
// every deletion query is (syntactically) the empty query.
func (t *Transducer) Inflationary() bool {
	for _, q := range t.Del {
		if q == nil {
			continue
		}
		if _, empty := q.(query.Empty); !empty {
			return false
		}
	}
	return true
}

// Monotone reports whether every query of the transducer is
// syntactically monotone.
func (t *Transducer) Monotone() bool {
	for _, q := range t.queries() {
		if q != nil && !q.SyntacticallyMonotone() {
			return false
		}
	}
	return true
}
