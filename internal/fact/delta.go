package fact

// Delta is the kernel's reusable delta-relation pair: a growing Full
// instance together with a staging area of facts discovered in the
// current round. It is the shape shared by semi-naive Datalog
// evaluation (package datalog) and incremental transducer firing
// (package transducer): each round derives new facts against Full,
// stages them, and commits the stage to obtain the next round's delta.
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

// Stage records a fact derived in the current round. It reports
// whether the fact is new (neither committed nor already staged).
// Staged facts are invisible to Full until Commit, preserving the
// round semantics of semi-naive evaluation.
func (d *Delta) Stage(f Fact) bool {
	if d.Full.HasFact(f) {
		return false
	}
	return d.staged.AddFact(f)
}

// StageRelation stages every tuple of heads under predicate pred —
// the batch counterpart of Stage, working at the packed-key level:
// tuples already committed or already staged are skipped with one
// probe each, and new tuples copy their keys into the staging area
// without re-packing or re-interning anything. Semi-naive evaluation
// calls it once per rule firing with the firing's whole head relation.
// heads' stored tuples are shared (they are immutable by convention).
func (d *Delta) StageRelation(pred string, heads *Relation) {
	if heads == nil || heads.Len() == 0 {
		return
	}
	mustShareDict(d.Full.dict, heads.dict, "StageRelation")
	full := d.Full.rels[pred]
	sr := d.staged.rels[pred]
	dirty := false
	for i, t := range heads.rows {
		k := heads.key(i)
		if full != nil && full.find(k) >= 0 {
			continue
		}
		if sr == nil {
			sr = d.Full.dict.NewRelation(heads.arity)
			d.staged.rels[pred] = sr
		} else if sr.find(k) >= 0 {
			continue
		}
		sr.addKeyed(k, t)
		dirty = true
	}
	if dirty {
		d.staged.dirty()
	}
}

// Sink returns a Sink staging derived tuples for pred with the given
// arity — the columnar counterpart of Stage/StageRelation. Batch
// executors append whole column slabs through it, deduplicating
// against both the committed Full relation and the facts already
// staged this round in one pass (see batchAppend), so the semi-naive
// round driver feeds rule outputs straight into the staging area
// without materializing an intermediate head relation or re-probing
// key by key.
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
// and the already-staged facts at the column level. Like Stage, it
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
func (d *Delta) Commit() *Instance {
	delta := d.staged
	d.Full.UnionWith(delta)
	d.staged = d.Full.dict.NewInstance()
	return delta
}
