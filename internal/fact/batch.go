package fact

import "encoding/binary"

// Batch is a columnar batch of candidate register bindings flowing
// through a compiled join schedule: one []uint32 ID vector per bound
// register, all of length Len. The batch executor in internal/plan
// drives it instruction by instruction — joins replace the batch with
// the join result, filters shrink it, and ProjectInto hands the head
// projection to a Sink as whole column slabs, which dedups them
// against the destination before allocating anything (see sink.go).
//
// Batch lives in package fact so that raw interned IDs never cross a
// package boundary (the same confinement the nodict linter enforces
// for the dictionary itself): the plan layer hands over relations,
// Values and register numbers, and gets set semantics back.
//
// A Batch is single-use scratch state for one plan execution; it is
// not safe for concurrent use and holds no locks.
type Batch struct {
	// dict is the interning dictionary the batch's ID columns are
	// encoded in: the dictionary of the relations joined in and of the
	// sink projected into, all of which must agree (checked per op).
	dict *Dict
	n    int
	cols [][]uint32 // by register; nil = register not yet bound
}

// BatchTerm is a term in batch operations: a bound register column
// (Reg >= 0) or the constant value V (Reg < 0).
type BatchTerm struct {
	Reg int
	V   Value
}

// ColConst constrains relation column Col to equal constant V.
type ColConst struct {
	Col int
	V   Value
}

// ColReg pairs relation column Col with batch register Reg — an
// equality check or a bind, depending on the JoinOp field it sits in.
type ColReg struct {
	Col, Reg int
}

// ColCol constrains relation column Col to equal column Other of the
// same row (a register repeated within one atom).
type ColCol struct {
	Col, Other int
}

// JoinOp describes one atom's join against the batch, translated from
// a compiled plan instruction: which relation, which column is probed
// by what, the residual equality checks, and which columns bind fresh
// registers.
type JoinOp struct {
	Rel   *Relation
	Arity int // expected arity; nil Rel or a mismatch yields no rows

	ProbeCol int   // relation column joined on; -1 = full scan
	ProbeReg int   // batch register supplying probe values; -1 = ProbeVal
	ProbeVal Value // constant probe (ProbeCol >= 0, ProbeReg < 0)

	ConstChecks []ColConst // relation-side: column = constant
	SelfChecks  []ColCol   // relation-side: column = column, same row
	PairChecks  []ColReg   // per-pair: column = batch register
	Binds       []ColReg   // column binds a fresh batch register
}

// mergeMinRows is the size both join sides must reach before the
// merge join on sorted runs replaces the vectorized hash probe: below
// it the radix sorts cost more than they save. Above it the merge also
// keeps the heap smaller than the per-column hash indexes would: with
// the merge path turned off, the columnar-ingest benchmark workload's
// live_heap_p90_mb rose from 30.2 to 33.1 MB (+9.6%, medians of 6
// alternated pairs on a 2-CPU shared host).
const mergeMinRows = 1 << 13

// NewBatch returns the unit batch (one row, no bound registers) over a
// register file of the given size — the identity element the schedule
// joins into — encoding IDs in the process-default dictionary.
func NewBatch(numRegs int) *Batch { return newBatch(defaultDict, numRegs) }

// NewBatchFor is NewBatch in the dictionary of the given sink: the
// batch executor derives its ID space from where the output goes, so
// a schedule evaluated over a per-run dictionary stays in it end to
// end.
func NewBatchFor(out Sink, numRegs int) *Batch { return newBatch(out.sinkDict(), numRegs) }

func newBatch(d *Dict, numRegs int) *Batch {
	return &Batch{dict: d, n: 1, cols: make([][]uint32, numRegs)}
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// clear empties the batch (a check failed for every possible row).
func (b *Batch) clear() {
	b.n = 0
	for i, c := range b.cols {
		if c != nil {
			b.cols[i] = c[:0]
		}
	}
}

// BindConst binds a register to a constant across all rows, interning
// the value (it may flow to the head projection, exactly as the
// tuple-at-a-time executor would intern it on output).
func (b *Batch) BindConst(reg int, v Value) {
	id := b.dict.intern(v)
	col := make([]uint32, b.n)
	for i := range col {
		col[i] = id
	}
	b.cols[reg] = col
}

// AssignReg binds register dst to the values of src (an equality
// assignment between registers). Columns are immutable once built, so
// aliasing the slice is safe.
func (b *Batch) AssignReg(dst, src int) {
	b.cols[dst] = b.cols[src]
}

// keepRows replaces the batch with the selected rows.
func (b *Batch) keepRows(keep []int32) {
	if len(keep) == b.n {
		return
	}
	for r, col := range b.cols {
		if col == nil {
			continue
		}
		nc := make([]uint32, len(keep))
		for i, k := range keep {
			nc[i] = col[k]
		}
		b.cols[r] = nc
	}
	b.n = len(keep)
}

// Join replaces the batch with its join against op.Rel, binding the
// op's fresh registers from the matched rows. It reports false —
// leaving the batch in an unspecified state — when the result would
// exceed maxRows; the caller then falls back to the tuple-at-a-time
// path, which streams instead of materializing.
func (b *Batch) Join(op JoinOp, maxRows int) bool {
	if b.n == 0 {
		return true
	}
	rel := op.Rel
	if rel == nil || rel.arity != op.Arity {
		b.clear()
		return true
	}
	mustShareDict(b.dict, rel.dict, "Batch.Join")
	cv := rel.columns()

	// Relation-side filter: constant and same-row column checks.
	consts := make([]struct {
		col int
		id  uint32
	}, 0, len(op.ConstChecks))
	for _, cc := range op.ConstChecks {
		id, ok := b.dict.lookup(cc.V)
		if !ok {
			// The constant occurs in no relation: no row can match.
			b.clear()
			return true
		}
		consts = append(consts, struct {
			col int
			id  uint32
		}{cc.Col, id})
	}
	relOK := func(row int32) bool {
		for _, c := range consts {
			if cv.col[c.col][row] != c.id {
				return false
			}
		}
		for _, sc := range op.SelfChecks {
			if cv.col[sc.Col][row] != cv.col[sc.Other][row] {
				return false
			}
		}
		return true
	}
	fastRel := len(consts) == 0 && len(op.SelfChecks) == 0
	pairOK := func(bi, ri int32) bool {
		for _, pc := range op.PairChecks {
			if cv.col[pc.Col][ri] != b.cols[pc.Reg][bi] {
				return false
			}
		}
		return true
	}
	fastPair := len(op.PairChecks) == 0

	var bsel, rsel []int32

	switch {
	case op.ProbeCol < 0 || op.ProbeReg < 0:
		// Scan or constant probe: the relation side is a fixed row set
		// crossed with every batch row.
		var cand []int32
		if op.ProbeCol >= 0 {
			id, ok := b.dict.lookup(op.ProbeVal)
			if !ok {
				b.clear()
				return true
			}
			for _, ri := range cv.index(op.ProbeCol)[id] {
				if fastRel || relOK(ri) {
					cand = append(cand, ri)
				}
			}
		} else {
			for ri := int32(0); int(ri) < cv.n; ri++ {
				if fastRel || relOK(ri) {
					cand = append(cand, ri)
				}
			}
		}
		if b.n*len(cand) > maxRows {
			return false
		}
		bsel = make([]int32, 0, b.n*len(cand))
		rsel = make([]int32, 0, b.n*len(cand))
		for bi := int32(0); int(bi) < b.n; bi++ {
			for _, ri := range cand {
				if fastPair || pairOK(bi, ri) {
					bsel = append(bsel, bi)
					rsel = append(rsel, ri)
				}
			}
		}

	default:
		// Register probe: an equi-join of the batch's probe column with
		// the relation column. Merge on sorted runs when both sides are
		// large; vectorized hash probe otherwise.
		bcol := b.cols[op.ProbeReg]
		if b.n >= mergeMinRows && cv.n >= mergeMinRows {
			bperm := radixPerm(bcol[:b.n])
			rperm := cv.sortedRun(op.ProbeCol)
			rkeys := cv.col[op.ProbeCol]
			i, j := 0, 0
			for i < len(bperm) && j < len(rperm) {
				bk := bcol[bperm[i]]
				rk := rkeys[rperm[j]]
				switch {
				case bk < rk:
					i++
				case bk > rk:
					j++
				default:
					i2 := i + 1
					for i2 < len(bperm) && bcol[bperm[i2]] == bk {
						i2++
					}
					j2 := j + 1
					for j2 < len(rperm) && rkeys[rperm[j2]] == bk {
						j2++
					}
					if len(bsel)+(i2-i)*(j2-j) > maxRows {
						return false
					}
					for _, bi := range bperm[i:i2] {
						for _, ri := range rperm[j:j2] {
							if (fastRel || relOK(ri)) && (fastPair || pairOK(bi, ri)) {
								bsel = append(bsel, bi)
								rsel = append(rsel, ri)
							}
						}
					}
					i, j = i2, j2
				}
			}
		} else {
			m := cv.index(op.ProbeCol)
			for bi := int32(0); int(bi) < b.n; bi++ {
				for _, ri := range m[bcol[bi]] {
					if (fastRel || relOK(ri)) && (fastPair || pairOK(bi, ri)) {
						if len(bsel) == maxRows {
							return false
						}
						bsel = append(bsel, bi)
						rsel = append(rsel, ri)
					}
				}
			}
		}
	}

	// Gather: existing bound columns by the batch selection, fresh
	// binds from the relation columns by the row selection.
	ncols := make([][]uint32, len(b.cols))
	for r, col := range b.cols {
		if col == nil {
			continue
		}
		nc := make([]uint32, len(bsel))
		for i, bi := range bsel {
			nc[i] = col[bi]
		}
		ncols[r] = nc
	}
	for _, bd := range op.Binds {
		src := cv.col[bd.Col]
		nc := make([]uint32, len(rsel))
		for i, ri := range rsel {
			nc[i] = src[ri]
		}
		ncols[bd.Reg] = nc
	}
	b.cols = ncols
	b.n = len(bsel)
	return true
}

// termIDs resolves a BatchTerm to a column (register) or a broadcast
// constant ID; ok is false when a constant was never interned (so no
// stored tuple can equal it).
func (b *Batch) termIDs(t BatchTerm) (col []uint32, id uint32, ok bool) {
	if t.Reg >= 0 {
		return b.cols[t.Reg], 0, true
	}
	id, ok = b.dict.lookup(t.V)
	return nil, id, ok
}

// FilterEq keeps the rows where l = r when want is true, and the rows
// where l != r when want is false. Interning is injective, so ID
// equality is value equality.
func (b *Batch) FilterEq(l, r BatchTerm, want bool) {
	if b.n == 0 {
		return
	}
	if l.Reg < 0 && r.Reg < 0 {
		// Two constants: one verdict for every row.
		if (l.V == r.V) != want {
			b.clear()
		}
		return
	}
	lc, lid, lok := b.termIDs(l)
	rc, rid, rok := b.termIDs(r)
	if !lok || !rok {
		// An uninterned constant equals no stored value: eq fails
		// everywhere, neq holds everywhere.
		if want {
			b.clear()
		}
		return
	}
	keep := make([]int32, 0, b.n)
	for i := 0; i < b.n; i++ {
		li, ri := lid, rid
		if lc != nil {
			li = lc[i]
		}
		if rc != nil {
			ri = rc[i]
		}
		if (li == ri) == want {
			keep = append(keep, int32(i))
		}
	}
	b.keepRows(keep)
}

// FilterNotIn keeps the rows whose term tuple is absent from rel (the
// anti-probe negation check), packing each row's IDs into a reusable
// key and probing the relation's row store allocation-free.
func (b *Batch) FilterNotIn(rel *Relation, terms []BatchTerm) {
	if b.n == 0 || rel == nil || rel.Len() == 0 || rel.arity != len(terms) {
		return
	}
	mustShareDict(b.dict, rel.dict, "Batch.FilterNotIn")
	constID := make([]uint32, len(terms))
	for j, tm := range terms {
		if tm.Reg >= 0 {
			continue
		}
		id, ok := b.dict.lookup(tm.V)
		if !ok {
			// The tuple contains a value in no relation: absent from
			// rel for every row, so every row passes.
			return
		}
		constID[j] = id
	}
	scratch := make([]byte, 4*len(terms))
	keep := make([]int32, 0, b.n)
	for i := 0; i < b.n; i++ {
		for j, tm := range terms {
			id := constID[j]
			if tm.Reg >= 0 {
				id = b.cols[tm.Reg][i]
			}
			binary.BigEndian.PutUint32(scratch[4*j:], id)
		}
		if rel.find(scratch) < 0 {
			keep = append(keep, int32(i))
		}
	}
	b.keepRows(keep)
}

// ProjectInto appends the head projection of every row into out,
// deduplicating within the batch and against the sink's existing
// tuples through the columnar batch-append path (sink.go): each row is
// probed against the row store under one reused scratch key, and the
// genuinely new rows are stored as packed keys only. No output tuple
// is built here; the destination decodes its rows on the first read
// that needs tuples (Each, Tuples, Lookup), so the per-row tuple
// build, pack and intern of the scalar path disappears from the
// full-output workloads.
func (b *Batch) ProjectInto(head []BatchTerm, out Sink) {
	if b.n == 0 {
		return
	}
	mustShareDict(b.dict, out.sinkDict(), "Batch.ProjectInto")
	if len(head) == 0 {
		out.Add(Tuple{})
		return
	}
	cols := make([][]uint32, len(head))
	for j, h := range head {
		if h.Reg >= 0 {
			cols[j] = b.cols[h.Reg]
			continue
		}
		// Head constants are interned: they become stored values,
		// exactly as the scalar executor's out.Add would intern them.
		id := b.dict.intern(h.V)
		col := make([]uint32, b.n)
		for i := range col {
			col[i] = id
		}
		cols[j] = col
	}
	out.appendBatch(cols, b.n)
}
