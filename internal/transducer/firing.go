package transducer

import (
	"fmt"
	"slices"

	"declnet/internal/fact"
	"declnet/internal/query"
)

// Firing is an incremental evaluator for one transducer placed at one
// node: it caches the result of every transducer query on the node's
// current state and replays transitions against (state, Δ) instead of
// re-evaluating every query on the full state.
//
// The produced effects are identical to Transducer.Step —
// incrementality is an evaluation strategy, not a semantics change.
// Four mechanisms carry it:
//
//   - Message deltas. Received facts live in message relations, which
//     are disjoint from the state schema; a query that does not read
//     them is answered from the cache whenever it is rel-bounded OR
//     the received values already occur in the state's active domain
//     (a query result is a function of the relations it reads and
//     adom(I), so nothing it depends on has changed). Delta-evaluable
//     queries (query.DeltaEvaluable — positive FO branches) are
//     answered as cache ∪ EvalDelta(state, Δrcv), over state and
//     Δrcv side by side — the schemas are disjoint, so I' = state ∪
//     Δrcv is never built for them.
//   - State deltas. When a transition only adds memory facts (the
//     paper's inflationary case), cached results advance by semi-naive
//     delta firing over the added facts, or survive untouched when
//     the additions miss the query's reads and active domain.
//   - Lazy probes. The quiescence check never needs the successor
//     instance, only whether it differs; ProbeParts decides that with
//     subset checks, memoized on result pointers.
//   - Fallback. Queries that fit none of the above are re-evaluated
//     in full — the exact original semantics.
//
// A transition that changes nothing allocates nothing of its own: it
// returns the input state itself as Effect.State and the previous
// send instance as Effect.Snd (while the send results are the same
// objects), so the steady state of a fair run — heartbeats and
// re-deliveries at saturated nodes — builds no instance, map or
// relation beyond what a delta evaluation derives.
type Firing struct {
	T *Transducer

	// state is the instance the cache entries are valid for, compared
	// by pointer identity: network feeds each Effect.State back as the
	// next call's state, so a mismatch means the caller switched
	// configurations and the cache must be rebuilt.
	state *fact.Instance

	queries []firingQuery
	cache   []*fact.Relation
	memRels []memEntry
	outIdx  int

	// names numbers the relations the queries read: bit i of a read
	// mask stands for names[i]. Names past the 63rd share bit 63, which
	// can only make a query look touched when it is not, never the
	// reverse.
	names []string

	// quietMem memoizes, per memory relation (indexed like memRels),
	// the (ins, del, old) relation-pointer triple that last verified
	// "no state change" in ProbeParts. Relations are immutable once
	// published, so pointer equality implies content equality and the
	// memo never goes stale; it is reset whenever the cache moves to a
	// new state. The zero triple is a valid entry: no insert and no
	// delete result on an absent relation change nothing.
	quietMem [][3]*fact.Relation

	// snd is the send instance of the last effect; see sndOf.
	snd *fact.Instance

	// sndScratch is reused by consecutive ProbeParts calls.
	sndScratch []SndResult
}

// firingQuery is one transducer query with its incremental
// capabilities, read off the query's summary.
type firingQuery struct {
	key   string // "snd:R", "ins:R", "del:R", "out"
	kind  byte   // 's', 'i', 'd', 'o'
	rel   string
	q     query.Query
	reads uint64 // read mask over Firing.names
	// delta is q when its semi-naive delta evaluation is exact, else
	// nil.
	delta query.DeltaEvaluable
	// bounded: result depends only on the relations in reads.
	bounded bool
}

// memEntry locates the insert and delete query slots of one memory
// relation (-1 when absent).
type memEntry struct {
	rel      string
	arity    int
	ins, del int
	bit      uint64 // the relation's read-mask bit, 0 if no query reads it
}

// NewFiring prepares an incremental evaluator for t.
func NewFiring(t *Transducer) *Firing {
	f := &Firing{T: t, outIdx: -1}
	add := func(kind byte, key, rel string, q query.Query) int {
		if q == nil {
			return -1
		}
		s := q.Summary()
		var reads uint64
		for _, r := range s.Reads {
			if !slices.Contains(f.names, r) {
				f.names = append(f.names, r)
			}
			reads |= f.bit(r)
		}
		fq := firingQuery{key: key, kind: kind, rel: rel, q: q, reads: reads, bounded: s.RelBounded}
		if d, ok := q.(query.DeltaEvaluable); ok && s.Delta {
			fq.delta = d
		}
		f.queries = append(f.queries, fq)
		return len(f.queries) - 1
	}
	for _, rel := range t.Schema.Msg.Names() {
		add('s', "snd:"+rel, rel, t.Snd[rel])
	}
	for _, rel := range t.Schema.Mem.Names() {
		e := memEntry{rel: rel, arity: t.Schema.Mem[rel]}
		e.ins = add('i', "ins:"+rel, rel, t.Ins[rel])
		e.del = add('d', "del:"+rel, rel, t.Del[rel])
		f.memRels = append(f.memRels, e)
	}
	f.outIdx = add('o', "out", "", t.Out)
	for i := range f.memRels {
		f.memRels[i].bit = f.bit(f.memRels[i].rel)
	}
	f.cache = make([]*fact.Relation, len(f.queries))
	f.quietMem = make([][3]*fact.Relation, len(f.memRels))
	return f
}

// bit returns the read-mask bit of a relation, 0 if no query reads it.
func (f *Firing) bit(rel string) uint64 {
	if i := slices.Index(f.names, rel); i >= 0 {
		return 1 << min(i, 63)
	}
	return 0
}

// resync drops the cache when the caller's state is not the one the
// cache was built for.
func (f *Firing) resync(state *fact.Instance) {
	if f.state != state {
		f.state = state
		clear(f.cache)
		clear(f.quietMem)
	}
}

// cachedOn returns (building if necessary) the cached result of query
// i on the current state.
func (f *Firing) cachedOn(state *fact.Instance, i int) (*fact.Relation, error) {
	if f.cache[i] == nil {
		r, err := f.queries[i].q.Eval(state)
		if err != nil {
			return nil, err
		}
		f.cache[i] = r
	}
	return f.cache[i], nil
}

// evalCtx carries the per-transition evaluation context: the state,
// the received facts, I' = state ∪ rcv (built lazily — only full
// re-evaluations need it) and the lazily decided "received values
// within adom(state)" verdict shared by all queries of the transition.
type evalCtx struct {
	state, rcv, iPrime *fact.Instance
	// received reports that rcv holds at least one fact; shadows, that
	// a received relation is also a state relation — a receive instance
	// outside the message schema, which only I' evaluates faithfully.
	received, shadows bool
	within            int8 // 0 unknown, 1 yes, -1 no
	// rcvReads is the read mask of the nonempty received relations.
	rcvReads uint64
}

func (f *Firing) newEvalCtx(state, rcv *fact.Instance) evalCtx {
	c := evalCtx{state: state, rcv: rcv}
	if rcv != nil {
		for _, n := range rcv.RelNames() {
			if !rcv.Relation(n).Empty() {
				c.received = true
				c.rcvReads |= f.bit(n)
				if state.Relation(n) != nil {
					c.shadows = true
				}
			}
		}
	}
	return c
}

// sees reports whether a query with the given read mask reads a
// received fact.
func (c *evalCtx) sees(reads uint64) bool { return c.rcvReads&reads != 0 }

// prime materializes I' = state ∪ rcv on first use.
func (c *evalCtx) prime() *fact.Instance {
	if c.iPrime == nil {
		iPrime := c.state.ShallowClone()
		for _, n := range c.rcv.RelNames() {
			if r := c.rcv.Relation(n); !r.Empty() {
				iPrime.SetRelationOwned(n, r)
			}
		}
		c.iPrime = iPrime
	}
	return c.iPrime
}

// withinAdom reports whether every received value already occurs in
// the state's active domain — in that case adom(I') = adom(state) and
// queries that read no message relation are unaffected by the
// delivery.
func (c *evalCtx) withinAdom() bool {
	if c.within == 0 {
		c.within = 1
		for _, n := range c.rcv.RelNames() {
			c.rcv.Relation(n).Each(func(t fact.Tuple) bool {
				for _, v := range t {
					if !c.state.AdomContains(v) {
						c.within = -1
						return false
					}
				}
				return true
			})
			if c.within < 0 {
				break
			}
		}
	}
	return c.within > 0
}

// evalOne computes query i on state ∪ rcv. The returned relation may
// be shared cache storage; callers must not mutate it. Results are
// pointer-stable: the same relation object comes back as long as
// nothing the query depends on changes, which the sim exploits to
// memoize downstream bookkeeping.
func (f *Firing) evalOne(c *evalCtx, i int) (*fact.Relation, error) {
	fq := &f.queries[i]
	if !c.received || !c.sees(fq.reads) && (fq.bounded || c.withinAdom()) {
		// No received facts, or the query cannot see them: its
		// relations are untouched and (rel-bounded, or adom-unchanged)
		// nothing else it may depend on moved.
		return f.cachedOn(c.state, i)
	}
	if fq.delta != nil {
		base, err := f.cachedOn(c.state, i)
		if err != nil {
			return nil, err
		}
		// Message and state schemas are disjoint, so the delta
		// evaluates over (state, rcv) without building I'.
		full := c.state
		if c.shadows {
			full = c.prime()
		}
		d, err := fq.delta.EvalDelta(full, c.rcv, base)
		if err != nil {
			return nil, err
		}
		switch {
		case d == nil:
			// Nothing new (e.g. a re-delivered known fact): keep the
			// pointer-stable cached result.
			return base, nil
		case base.Empty():
			// The state alone derives nothing (e.g. an insert of the
			// received facts): the delta is the whole result.
			return d, nil
		}
		// A copy, not base.Extend(d): the result serves this one
		// transition, and base must stay the tip of its chain so that
		// Step's advance grows it in place.
		out := base.Clone()
		out.UnionWith(d)
		return out, nil
	}
	return fq.q.Eval(c.prime())
}

// maxStackQueries sizes the per-call result buffer Step and ProbeParts
// keep on the stack; transducers with more queries spill to the heap.
const maxStackQueries = 8

// evalAll evaluates every transducer query on (state, rcv), appending
// the results to results.
func (f *Firing) evalAll(state, rcv *fact.Instance, results []*fact.Relation) ([]*fact.Relation, error) {
	c := f.newEvalCtx(state, rcv)
	for i := range f.queries {
		r, err := f.evalOne(&c, i)
		if err != nil {
			return nil, fmt.Errorf("transducer %s: %s: %w", f.T.Name, f.queries[i].key, err)
		}
		results = append(results, r)
	}
	return results, nil
}

// at returns results[idx], nil for an absent query (idx < 0).
func at(results []*fact.Relation, idx int) *fact.Relation {
	if idx < 0 {
		return nil
	}
	return results[idx]
}

// outOf returns the output query's result (empty without one).
func (f *Firing) outOf(state *fact.Instance, results []*fact.Relation) *fact.Relation {
	if f.outIdx < 0 {
		return state.Dict().NewRelation(f.T.Schema.OutArity)
	}
	return results[f.outIdx]
}

// effect assembles the full transition effect from the per-query
// results. A memory relation the update leaves unchanged keeps its
// object, and when none changes the successor is state itself; while
// every send query returns the same relation objects, the previous
// send instance is returned again. It performs no cache maintenance.
func (f *Firing) effect(state *fact.Instance, results []*fact.Relation) Effect {
	next := state
	for _, e := range f.memRels {
		ins, del, old := at(results, e.ins), at(results, e.del), state.Relation(e.rel)
		if memUnchanged(ins, del, old) {
			continue
		}
		if next == state {
			next = state.ShallowClone()
		}
		next.SetRelationOwned(e.rel, memUpdate(state.Dict(), e.arity, ins, del, old))
	}
	return Effect{State: next, Snd: f.sndOf(state, results), Out: f.outOf(state, results)}
}

// sndOf returns the send instance holding the send-query results,
// reusing the previous one when it holds exactly these relations.
func (f *Firing) sndOf(state *fact.Instance, results []*fact.Relation) *fact.Instance {
	if f.snd != nil && f.sndHolds(results) {
		return f.snd
	}
	snd := state.Dict().NewInstance()
	for i := range f.queries {
		if fq := &f.queries[i]; fq.kind == 's' {
			snd.SetRelationOwned(fq.rel, results[i])
		}
	}
	f.snd = snd
	return snd
}

// sndHolds reports whether f.snd holds exactly the send results.
func (f *Firing) sndHolds(results []*fact.Relation) bool {
	for i := range f.queries {
		if fq := &f.queries[i]; fq.kind == 's' && f.snd.Relation(fq.rel) != results[i] {
			return false
		}
	}
	return true
}

// memUpdate computes the conflict-resolution update J(R) of a memory
// relation the transition changes; nil stands for an absent query or
// relation.
func memUpdate(d *fact.Dict, arity int, ins, del, old *fact.Relation) *fact.Relation {
	orEmpty := func(r *fact.Relation) *fact.Relation {
		if r == nil {
			return d.NewRelation(arity)
		}
		return r
	}
	if del == nil || del.Empty() {
		// Inflationary: J(R) = Qins ∪ I(R), a new version of I(R)'s
		// chain.
		return orEmpty(old).Extend(ins)
	}
	ins, old = orEmpty(ins), orEmpty(old)
	updated := ins.Minus(del)                            // Qins \ Qdel
	updated.UnionWith(ins.Intersect(del).Intersect(old)) // conflicts keep old tuples
	updated.UnionWith(old.Minus(unionRel(ins, del)))     // untouched tuples persist
	return updated
}

// SndResult is one send-query result: the message relation name and
// the tuples the probed transition would send on it.
type SndResult struct {
	Rel string
	R   *fact.Relation
}

// ProbeParts is the lazily evaluated transition probe behind the
// quiescence check: it reports whether the transition from
// (state, rcv) would change the state, and exposes the send and
// output results, WITHOUT building the successor instance or
// advancing the cache. Unchanged-state verdicts are memoized per
// memory relation on the result pointers, so repeated probes of a
// saturated node cost a handful of pointer compares. The returned
// relations and slice are shared storage and must not be mutated.
func (f *Firing) ProbeParts(state, rcv *fact.Instance) (stateChanged bool, snd []SndResult, out *fact.Relation, err error) {
	f.resync(state)
	var buf [maxStackQueries]*fact.Relation
	results, err := f.evalAll(state, rcv, buf[:0])
	if err != nil {
		return false, nil, nil, err
	}
	for j, e := range f.memRels {
		ins, del := at(results, e.ins), at(results, e.del)
		// Relation (not RelationOr): nil is a stable sentinel for an
		// absent relation, so the pointer memo keeps working for
		// memory relations the node never materialized.
		old := state.Relation(e.rel)
		if f.quietMem[j] == [3]*fact.Relation{ins, del, old} {
			continue
		}
		if !memUnchanged(ins, del, old) {
			return true, nil, nil, nil
		}
		f.quietMem[j] = [3]*fact.Relation{ins, del, old}
	}
	if f.sndScratch == nil {
		f.sndScratch = make([]SndResult, 0, len(f.queries))
	}
	snd = f.sndScratch[:0]
	for i := range f.queries {
		fq := &f.queries[i]
		if fq.kind == 's' {
			snd = append(snd, SndResult{Rel: fq.rel, R: results[i]})
		}
	}
	return false, snd, f.outOf(state, results), nil
}

// memUnchanged reports whether the conflict-resolution update
//
//	J(R) = (Qins \ Qdel) ∪ (Qins ∩ Qdel ∩ I(R)) ∪ (I(R) \ (Qins ∪ Qdel))
//
// leaves I(R) unchanged, without materializing J(R): that holds iff
// Qins \ Qdel ⊆ I(R) (nothing appears) and I(R) ∩ (Qdel \ Qins) = ∅
// (nothing disappears). Cost is O(|Qins| + |Qdel|), independent of
// the state size. Nil stands for an absent query or relation.
func memUnchanged(ins, del, old *fact.Relation) bool {
	if del == nil || del.Empty() {
		// Inflationary: unchanged iff Qins ⊆ I(R), compared on packed
		// keys without re-encoding a tuple.
		return ins == nil || ins.SubsetOf(old)
	}
	unchanged := true
	if ins != nil {
		ins.Each(func(t fact.Tuple) bool {
			if del.Contains(t) {
				return true // conflict: tuple keeps its old status
			}
			if old == nil || !old.Contains(t) {
				unchanged = false
			}
			return unchanged
		})
		if !unchanged {
			return false
		}
	}
	if old != nil {
		del.Each(func(t fact.Tuple) bool {
			if ins != nil && ins.Contains(t) {
				return true // conflict: tuple keeps its old status
			}
			if old.Contains(t) {
				unchanged = false
			}
			return unchanged
		})
	}
	return unchanged
}

// Step executes one transition from (state, rcv), advancing the cache
// onto the new state: per-query results are kept verbatim when the
// transition cannot have changed them, advanced by semi-naive delta
// firing when the state only grew, and dropped otherwise. The second
// return reports whether the state changed; when it did not,
// Effect.State is state itself (the identity contract on Effect).
// Relations and instances in the returned Effect may be shared cache
// storage; callers must not mutate them.
func (f *Firing) Step(state, rcv *fact.Instance) (Effect, bool, error) {
	f.resync(state)
	var buf [maxStackQueries]*fact.Relation
	results, err := f.evalAll(state, rcv, buf[:0])
	if err != nil {
		return Effect{}, false, err
	}
	eff := f.effect(state, results)
	if eff.State == state {
		// State content unchanged: every cache entry remains valid.
		return eff, false, nil
	}

	// effect installs a new object exactly for the memory relations
	// whose content changed; diff those to learn how the state moved.
	var changed uint64
	added := state.Dict().NewInstance()
	removedAny := false
	for _, e := range f.memRels {
		old, now := state.Relation(e.rel), eff.State.Relation(e.rel)
		if old == now {
			continue
		}
		changed |= e.bit
		if add := now.Minus(old); !add.Empty() {
			added.SetRelationOwned(e.rel, add)
		}
		if old != nil && !old.SubsetOf(now) {
			removedAny = true
		}
	}

	// newVals collects added values outside the state's active domain.
	// addedWithin (no such values) lets cached results of queries that
	// read none of the changed relations stay exact even for
	// adom-sensitive queries; either way, an additive transition can
	// seed the successor's active-domain memo instead of rescanning.
	var newVals []fact.Value
	if !removedAny {
		for _, n := range added.RelNames() {
			added.Relation(n).Each(func(t fact.Tuple) bool {
				for _, v := range t {
					if !state.AdomContains(v) {
						newVals = append(newVals, v)
					}
				}
				return true
			})
		}
		eff.State.AdoptActiveDomain(state, newVals)
	}
	addedWithin := !removedAny && len(newVals) == 0

	for i := range f.queries {
		fq := &f.queries[i]
		touched := fq.reads&changed != 0
		switch {
		case f.cache[i] == nil:
			// nothing cached; stays lazily computed
		case !touched && (fq.bounded || addedWithin):
			// reads untouched relations only, and nothing else the
			// query may depend on moved: still exact
		case !removedAny && fq.delta != nil:
			d, err := fq.delta.EvalDelta(eff.State, added, f.cache[i])
			if err != nil {
				return Effect{}, false, fmt.Errorf("transducer %s: advance %s: %w", f.T.Name, fq.key, err)
			}
			if d != nil {
				// A new version: the cached relation may be aliased by
				// a previously returned Effect, which keeps seeing its
				// own prefix of the chain.
				f.cache[i] = f.cache[i].Extend(d)
			}
		default:
			f.cache[i] = nil
		}
	}
	f.state = eff.State
	clear(f.quietMem)
	return eff, true, nil
}
