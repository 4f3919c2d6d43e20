package fact

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is a database schema: a finite map from relation names to
// arities.
type Schema map[string]int

// Has reports whether the schema declares rel.
func (s Schema) Has(rel string) bool {
	_, ok := s[rel]
	return ok
}

// Arity returns the arity of rel, or -1 if undeclared.
func (s Schema) Arity(rel string) int {
	a, ok := s[rel]
	if !ok {
		return -1
	}
	return a
}

// Names returns the relation names in sorted order.
func (s Schema) Names() []string {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	c := make(Schema, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Union returns the union of disjoint schemas; it returns an error if
// the same name appears with different arities.
func (s Schema) Union(others ...Schema) (Schema, error) {
	out := s.Clone()
	for _, o := range others {
		for k, v := range o {
			if prev, ok := out[k]; ok && prev != v {
				return nil, fmt.Errorf("fact: schema union: %s declared with arities %d and %d", k, prev, v)
			}
			out[k] = v
		}
	}
	return out, nil
}

// Disjoint reports whether s shares no relation name with o.
func (s Schema) Disjoint(o Schema) bool {
	for k := range s {
		if _, ok := o[k]; ok {
			return false
		}
	}
	return true
}

func (s Schema) String() string {
	parts := make([]string, 0, len(s))
	for _, n := range s.Names() {
		parts = append(parts, fmt.Sprintf("%s/%d", n, s[n]))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Instance is a database instance: an assignment of finite relations
// to relation names, equivalently a finite set of facts. Every stored
// relation is encoded in the instance's interning dictionary; derived
// instances (Clone, Restrict, ShallowClone, ApplyPermutation) inherit
// it, and installing a relation from a different dictionary is a
// checked error.
type Instance struct {
	dict *Dict
	rels map[string]*Relation

	// adom memoizes ActiveDomain (sorted) and its membership set;
	// every mutator resets both. Stored relations are never mutated in
	// place (every write goes through an Instance method), so the memo
	// cannot go stale.
	adom    []Value
	adomSet map[Value]bool

	// relNames memoizes RelNames; mutators reset it via dirty.
	relNames []string
}

// dirty resets the active-domain memo; every mutator calls it.
func (i *Instance) dirty() {
	i.adom = nil
	i.adomSet = nil
	i.relNames = nil
}

// NewInstance returns an empty instance over the process-default
// dictionary.
func NewInstance() *Instance { return defaultDict.NewInstance() }

// NewInstance returns an empty instance interning through d.
func (d *Dict) NewInstance() *Instance {
	return &Instance{dict: d, rels: make(map[string]*Relation)}
}

// FromFacts builds an instance from a list of facts over the
// process-default dictionary.
func FromFacts(facts ...Fact) *Instance { return defaultDict.FromFacts(facts...) }

// FromFacts builds an instance from a list of facts interning
// through d.
func (d *Dict) FromFacts(facts ...Fact) *Instance {
	i := d.NewInstance()
	for _, f := range facts {
		i.AddFact(f)
	}
	return i
}

// Dict returns the instance's interning dictionary — the handle every
// derived relation and instance must be built over.
func (i *Instance) Dict() *Dict { return i.dict }

// Rekey re-encodes the instance into the destination dictionary: the
// one-instance case of RekeyInstances, so one translation table serves
// all its relations. A same-dictionary Rekey degenerates to Clone.
func (i *Instance) Rekey(dst *Dict) *Instance {
	ins := [1]*Instance{i}
	RekeyInstances(dst, ins[:])
	return ins[0]
}

// Relation returns the relation stored under rel, or nil if absent.
func (i *Instance) Relation(rel string) *Relation {
	return i.rels[rel]
}

// RelationOr returns the relation under rel, or an empty relation of
// the given arity if absent. The returned empty relation is not
// stored in the instance.
func (i *Instance) RelationOr(rel string, arity int) *Relation {
	if r, ok := i.rels[rel]; ok {
		return r
	}
	return i.dict.NewRelation(arity)
}

// SetRelation installs (a clone of) r under rel, replacing any
// previous relation. r must share the instance's dictionary.
func (i *Instance) SetRelation(rel string, r *Relation) {
	i.dirty()
	if r == nil {
		delete(i.rels, rel)
		return
	}
	mustShareDict(i.dict, r.dict, "SetRelation")
	i.rels[rel] = r.Clone()
}

// SetRelationOwned installs r under rel without copying; the caller
// transfers ownership and must not mutate r afterwards. It is the
// allocation-free counterpart of SetRelation for hot paths. r must
// share the instance's dictionary.
func (i *Instance) SetRelationOwned(rel string, r *Relation) {
	i.dirty()
	if r == nil {
		delete(i.rels, rel)
		return
	}
	mustShareDict(i.dict, r.dict, "SetRelationOwned")
	i.rels[rel] = r
}

// ShallowClone returns a new instance sharing the relation objects of
// i. It is safe as long as the shared relations are not mutated in
// place — replace them with SetRelation/SetRelationOwned instead. The
// transducer transition uses it to avoid copying the untouched input
// and system relations on every step.
func (i *Instance) ShallowClone() *Instance {
	c := i.dict.NewInstance()
	for n, r := range i.rels {
		c.rels[n] = r
	}
	c.adom, c.adomSet = i.adom, i.adomSet
	return c
}

// AddFact inserts a fact, creating the relation as needed. It panics
// if rel already exists with a different arity. It reports whether
// the fact was new.
func (i *Instance) AddFact(f Fact) bool {
	i.dirty()
	r, ok := i.rels[f.Rel]
	if !ok {
		r = i.dict.NewRelation(len(f.Args))
		i.rels[f.Rel] = r
	}
	return r.Add(f.Args)
}

// RemoveFact deletes a fact, reporting whether it was present.
func (i *Instance) RemoveFact(f Fact) bool {
	i.dirty()
	r, ok := i.rels[f.Rel]
	if !ok {
		return false
	}
	return r.Remove(f.Args)
}

// HasFact reports whether the fact is present.
func (i *Instance) HasFact(f Fact) bool {
	r, ok := i.rels[f.Rel]
	return ok && r.Contains(f.Args)
}

// Facts returns all facts in deterministic order (by relation name,
// then tuple key).
func (i *Instance) Facts() []Fact {
	names := make([]string, 0, len(i.rels))
	for n := range i.rels {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []Fact
	for _, n := range names {
		for _, t := range i.rels[n].Tuples() {
			out = append(out, Fact{Rel: n, Args: t})
		}
	}
	return out
}

// Size returns the total number of facts.
func (i *Instance) Size() int {
	n := 0
	for _, r := range i.rels {
		n += r.Len()
	}
	return n
}

// Empty reports whether the instance contains no facts.
func (i *Instance) Empty() bool { return i.Size() == 0 }

// RelNames returns the names of the (possibly empty) relations stored
// in the instance, sorted. The result is memoized until the next
// mutation and must not be modified.
func (i *Instance) RelNames() []string {
	if i.relNames == nil {
		names := make([]string, 0, len(i.rels))
		for n := range i.rels {
			names = append(names, n)
		}
		sort.Strings(names)
		i.relNames = names
	}
	return i.relNames
}

// Clone returns a deep copy over the same dictionary.
func (i *Instance) Clone() *Instance {
	c := i.dict.NewInstance()
	for n, r := range i.rels {
		c.rels[n] = r.Clone()
	}
	return c
}

// UnionWith adds all facts of o into i; o must share i's dictionary
// (keys move between the instances without re-encoding; use Rekey to
// cross dictionaries).
func (i *Instance) UnionWith(o *Instance) {
	if o == nil {
		return
	}
	mustShareDict(i.dict, o.dict, "UnionWith")
	i.dirty()
	for n, r := range o.rels {
		mine, ok := i.rels[n]
		if !ok {
			i.rels[n] = r.Clone()
			continue
		}
		mine.UnionWith(r)
	}
}

// Union returns a new instance containing the facts of both.
func Union(a, b *Instance) *Instance {
	out := a.Clone()
	out.UnionWith(b)
	return out
}

// Restrict returns the sub-instance of i containing only relations
// declared in the schema.
func (i *Instance) Restrict(s Schema) *Instance {
	out := i.dict.NewInstance()
	for n, r := range i.rels {
		if s.Has(n) {
			out.rels[n] = r.Clone()
		}
	}
	return out
}

// Equal reports whether two instances contain exactly the same facts.
// Empty relations are ignored, matching set-of-facts semantics. An
// instance is equal to itself in O(1), and relations both instances
// share are compared by pointer.
func (i *Instance) Equal(o *Instance) bool {
	if i == o {
		return true
	}
	if o == nil {
		return i.Size() == 0
	}
	for n, r := range i.rels {
		if !r.Equal(o.RelationOr(n, r.Arity())) {
			return false
		}
	}
	// Relations both sides hold were compared above; what remains is
	// that o holds no facts under a name i lacks.
	for n, r := range o.rels {
		if _, ok := i.rels[n]; !ok && r.Len() > 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every fact of i is a fact of o; O(1) when
// o is i.
func (i *Instance) SubsetOf(o *Instance) bool {
	if i == o {
		return true
	}
	for n, r := range i.rels {
		if o == nil {
			if r.Len() > 0 {
				return false
			}
			continue
		}
		if !r.SubsetOf(o.RelationOr(n, r.Arity())) {
			return false
		}
	}
	return true
}

// ActiveDomain returns adom(I): the set of data elements occurring in
// the instance, in sorted order. The result is memoized until the
// next mutation and is shared storage: callers must not modify it.
func (i *Instance) ActiveDomain() []Value {
	if i.adom == nil {
		i.ensureAdom()
	}
	return i.adom
}

// AdomContains reports whether v occurs in the instance, using the
// memoized active-domain set.
func (i *Instance) AdomContains(v Value) bool {
	if i.adomSet == nil {
		i.ensureAdom()
	}
	return i.adomSet[v]
}

// AdoptActiveDomain seeds i's active-domain memo from base's,
// extended with extra values. The caller guarantees that
// adom(i) = adom(base) ∪ extra; incremental transducer firing uses it
// to carry the memo across additive state transitions instead of
// rescanning every tuple. A no-op when base has no memo.
func (i *Instance) AdoptActiveDomain(base *Instance, extra []Value) {
	if base.adom == nil || base.adomSet == nil {
		return
	}
	fresh := extra[:0]
	for _, v := range extra {
		if !base.adomSet[v] {
			fresh = append(fresh, v)
		}
	}
	if len(fresh) == 0 {
		// Identical domain: share the (read-only) memo storage.
		i.adom, i.adomSet = base.adom, base.adomSet
		return
	}
	set := make(map[Value]bool, len(base.adomSet)+len(fresh))
	for v := range base.adomSet {
		set[v] = true
	}
	// Sort (and dedup) only the handful of fresh values, then merge
	// the two sorted runs — base.adom is sorted by invariant.
	sort.Slice(fresh, func(a, b int) bool { return fresh[a] < fresh[b] })
	adom := make([]Value, 0, len(base.adom)+len(fresh))
	bi := 0
	for _, v := range fresh {
		if set[v] {
			continue // duplicate within fresh
		}
		set[v] = true
		for bi < len(base.adom) && base.adom[bi] < v {
			adom = append(adom, base.adom[bi])
			bi++
		}
		adom = append(adom, v)
	}
	adom = append(adom, base.adom[bi:]...)
	i.adom, i.adomSet = adom, set
}

func (i *Instance) ensureAdom() {
	seen := make(map[Value]bool)
	for _, r := range i.rels {
		r.Each(func(t Tuple) bool {
			for _, v := range t {
				seen[v] = true
			}
			return true
		})
	}
	out := make([]Value, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	i.adom, i.adomSet = out, seen
}

// Conforms checks that every stored relation is declared in the schema
// with matching arity.
func (i *Instance) Conforms(s Schema) error {
	for n, r := range i.rels {
		a, ok := s[n]
		if !ok {
			return fmt.Errorf("fact: relation %s not in schema %s", n, s)
		}
		if a != r.Arity() {
			return fmt.Errorf("fact: relation %s has arity %d, schema declares %d", n, r.Arity(), a)
		}
	}
	return nil
}

func (i *Instance) String() string {
	facts := i.Facts()
	parts := make([]string, len(facts))
	for j, f := range facts {
		parts[j] = f.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// ApplyPermutation returns h(I) for a (partial) permutation h of dom;
// values not in the map are left fixed. Used to check genericity of
// queries (condition (ii) of the paper's query definition).
func (i *Instance) ApplyPermutation(h map[Value]Value) *Instance {
	out := i.dict.NewInstance()
	for n, r := range i.rels {
		nr := i.dict.NewRelation(r.Arity())
		r.Each(func(t Tuple) bool {
			nt := make(Tuple, len(t))
			for j, v := range t {
				if w, ok := h[v]; ok {
					nt[j] = w
				} else {
					nt[j] = v
				}
			}
			nr.Add(nt)
			return true
		})
		out.rels[n] = nr
	}
	return out
}

// ApplyPermutationRel returns h(R) for a relation, over r's
// dictionary.
func ApplyPermutationRel(r *Relation, h map[Value]Value) *Relation {
	out := r.dict.NewRelation(r.Arity())
	r.Each(func(t Tuple) bool {
		nt := make(Tuple, len(t))
		for j, v := range t {
			if w, ok := h[v]; ok {
				nt[j] = w
			} else {
				nt[j] = v
			}
		}
		out.Add(nt)
		return true
	})
	return out
}
