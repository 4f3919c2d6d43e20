package fact

import (
	"encoding/binary"
	"slices"
)

// An idMap translates the IDs of one dictionary into another for the
// span of one call: Rekey (intern mode) or a cross-dictionary subset
// probe (lookup mode). Each distinct source ID is resolved once —
// src.value, then dst.intern or dst.lookup — so crossing a dictionary
// boundary costs one dictionary probe per distinct value instead of
// one per value occurrence. Lookup misses are memoised as absent.
//
// The table is never larger than the number of value slots it is
// built to translate: a dense slice over the source ID space when that
// space is no larger, a map of the IDs actually seen otherwise, and
// none at all for at most tableMin slots. It is per call and dropped
// with it; nothing is cached on either Dict.
type idMap struct {
	src, dst *Dict
	intern   bool
	// dense, in dense mode, holds the translation of source ID id at
	// dense[id]: 0 while unresolved, idAbsent for a lookup miss, the
	// destination ID plus one otherwise.
	dense []uint32
	// sparse, in map mode, holds resolved IDs under the same
	// encoding, minus the unresolved state (a missing key).
	sparse map[uint32]uint32
}

// idAbsent marks a source ID whose value dst has never interned.
const idAbsent = ^uint32(0)

// tableMin is the slot count up to which an idMap keeps no table and
// resolves every occurrence: so few repeats cannot repay building one.
const tableMin = 8

// newIDMap returns a table translating src IDs into dst for a call
// that translates at most slots value occurrences; intern selects
// whether unseen values are interned into dst or reported absent.
func newIDMap(src, dst *Dict, slots int, intern bool) idMap {
	m := idMap{src: src, dst: dst, intern: intern}
	if slots > tableMin {
		if n := src.idSpace(); n <= slots {
			m.dense = make([]uint32, n)
		} else {
			m.sparse = make(map[uint32]uint32)
		}
	}
	return m
}

// get returns the destination ID of source ID id; ok is false when
// the table is in lookup mode and dst never interned the value.
func (m *idMap) get(id uint32) (uint32, bool) {
	var e uint32
	switch {
	case m.dense != nil:
		e = m.dense[id]
	case m.sparse != nil:
		e = m.sparse[id]
	}
	if e == 0 {
		e = idAbsent
		v := m.src.value(id)
		if m.intern {
			e = m.dst.intern(v) + 1
		} else if d, ok := m.dst.lookup(v); ok {
			e = d + 1
		}
		switch {
		case m.dense != nil:
			m.dense[id] = e
		case m.sparse != nil:
			m.sparse[id] = e
		}
	}
	return e - 1, e != idAbsent
}

// rekeyVia re-encodes r into dst through the intern-mode table m: the
// source slab is translated ID by ID in row-major order, so values
// intern into dst in order of first occurrence, exactly as re-adding
// the tuples would. m may be nil when r has no value slots (no rows,
// or arity 0).
func (r *Relation) rekeyVia(m *idMap, dst *Dict) *Relation {
	// Interning is injective in both dictionaries, so distinct stored
	// tuples get distinct keys: rows go in without a membership probe,
	// into a store sized up front. They go in key-only, to be decoded
	// through dst on first read; only arity 0 keeps its row decoded.
	out := &Relation{dict: dst, arity: r.arity, keys: make([]byte, len(r.keys))}
	if r.arity == 0 {
		out.rows = slices.Clone(r.rows)
	}
	for off := 0; off < len(r.keys); off += 4 {
		id, _ := m.get(binary.BigEndian.Uint32(r.keys[off:]))
		binary.BigEndian.PutUint32(out.keys[off:], id)
	}
	out.placeFrom(0)
	return out
}

// RekeyInstances re-encodes every instance of ins into dst in place:
// each element is replaced by its re-encoding (see Relation.Rekey),
// nil elements stay nil and an instance already over dst is cloned.
// One translation table per source dictionary serves every instance,
// so a value shared by several instances (fragments of one partition,
// relations of one instance) is resolved once. Values intern into dst
// in a reproducible order — instances in slice order, relations by
// name, rows in insertion order — so rekeying equal inputs into two
// fresh dictionaries assigns identical IDs. Instances without rows
// allocate no table.
func RekeyInstances(dst *Dict, ins []*Instance) {
	// tabs holds one table per source dictionary, built on the first
	// instance with rows to translate and sized for every instance
	// over that dictionary.
	var tabs []*idMap
	for j, in := range ins {
		switch {
		case in == nil:
		case in.dict == dst:
			ins[j] = in.Clone()
		default:
			ins[j] = in.rekeyVia(&tabs, ins[j:], dst)
		}
	}
}

// rekeyVia re-encodes i into dst through the table for i's dictionary
// in tabs, building it on first need; rest (i first) is the part of
// the RekeyInstances input not yet re-encoded, whose slots over i's
// dictionary size the table.
func (i *Instance) rekeyVia(tabs *[]*idMap, rest []*Instance, dst *Dict) *Instance {
	out := dst.NewInstance()
	if i.slots() == 0 {
		for n, r := range i.rels {
			out.rels[n] = r.rekeyVia(nil, dst)
		}
		return out
	}
	var m *idMap
	for _, t := range *tabs {
		if t.src == i.dict {
			m = t
		}
	}
	if m == nil {
		slots := 0
		for _, o := range rest {
			if o != nil && o.dict == i.dict {
				slots += o.slots()
			}
		}
		t := newIDMap(i.dict, dst, slots, true)
		m = &t
		*tabs = append(*tabs, m)
	}
	names := make([]string, 0, len(i.rels))
	for n := range i.rels {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		out.rels[n] = i.rels[n].rekeyVia(m, dst)
	}
	return out
}

// slots counts the value occurrences stored in i: the IDs a Rekey of
// i translates.
func (i *Instance) slots() int {
	n := 0
	for _, r := range i.rels {
		n += len(r.keys) / 4
	}
	return n
}
