package fact

// Delta is the kernel's reusable delta-relation pair: a growing Full
// instance together with a staging area of facts discovered in the
// current round. Semi-naive Datalog evaluation (package datalog) runs
// on it: each round derives new facts against Full, stages them
// through Sink, and commits the stage to obtain the next round's
// delta.
type Delta struct {
	// Full is the instance all facts committed so far, visible to the
	// current round. The Delta owns it; callers that need the final
	// result read it after the last Commit.
	Full *Instance

	staged *Instance
}

// NewDelta starts delta tracking over full, taking ownership of it.
// The staging area lives in full's interning dictionary.
func NewDelta(full *Instance) *Delta {
	return &Delta{Full: full, staged: full.dict.NewInstance()}
}

// Sink returns a Sink staging derived tuples for pred with the given
// arity. Batch executors append whole column slabs through it,
// deduplicating against both the committed Full relation and the
// facts already staged this round in one pass (see batchAppend), so
// the semi-naive round driver feeds rule outputs straight into the
// staging area without materializing an intermediate head relation or
// re-probing key by key. Staged facts stay invisible to Full until
// Commit.
func (d *Delta) Sink(pred string, arity int) Sink {
	return deltaSink{d: d, pred: pred, arity: arity}
}

// deltaSink implements Sink over one predicate of a Delta.
type deltaSink struct {
	d     *Delta
	pred  string
	arity int
}

// Add stages one tuple, reporting whether it was new (neither
// committed nor already staged). The staged copy is private, exactly
// like Relation.Add's.
func (s deltaSink) Add(t Tuple) bool {
	var scratch [64]byte
	k := s.d.Full.dict.packTuple(scratch[:0], t)
	if full := s.d.Full.rels[s.pred]; full != nil && full.find(k) >= 0 {
		return false
	}
	sr := s.d.staged.rels[s.pred]
	if sr == nil {
		sr = s.d.Full.dict.NewRelation(s.arity)
		s.d.staged.rels[s.pred] = sr
	} else if sr.find(k) >= 0 {
		return false
	}
	sr.addKeyed(k, t.Clone())
	s.d.staged.dirty()
	return true
}

// appendBatch stages rows [0,n) of cols, deduplicating against Full
// and the already-staged facts at the column level. Like Add, it
// creates the staging relation only when a row actually survives
// dedup, so empty firings leave the staging instance untouched.
func (s deltaSink) appendBatch(cols [][]uint32, n int) {
	if n == 0 {
		return
	}
	sr := s.d.staged.rels[s.pred]
	fresh := sr == nil
	if fresh {
		sr = s.d.Full.dict.NewRelation(s.arity)
	}
	before := sr.Len()
	batchAppend(sr, s.d.Full.rels[s.pred], cols, n)
	if sr.Len() == before {
		return
	}
	if fresh {
		s.d.staged.rels[s.pred] = sr
	}
	s.d.staged.dirty()
}

// Dirty reports whether the current round staged any new fact.
func (d *Delta) Dirty() bool { return !d.staged.Empty() }

// Commit folds the staged facts into Full and returns them as the
// delta instance for the next round. The staging area is reset.
// Staged facts are disjoint from Full by construction, so each Full
// relation grows once by its staged relation's length.
func (d *Delta) Commit() *Instance {
	delta := d.staged
	for n, r := range delta.rels {
		if full := d.Full.rels[n]; full != nil {
			full.grow(r.Len())
		}
	}
	d.Full.UnionWith(delta)
	d.staged = d.Full.dict.NewInstance()
	return delta
}
