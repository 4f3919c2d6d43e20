package dist

import (
	"fmt"

	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/query"
	"declnet/internal/transducer"
)

// taggedSubstrate wires the origin-tagged replication-with-
// acknowledgements machinery shared by Multicast (Lemma 5(1)) and
// CollectThenCompute (Theorem 6(1)). Per input relation R/k:
//
//	R@cast/(k+1)  message (origin, t): origin's input facts, gossiped
//	R@castm/(k+1) memory: collected tagged facts
//	R@ack/(k+2)   message (acker, origin, t): "acker holds (origin,t)"
//	R@ackm/(k+2)  memory: collected acknowledgements
//
// plus the schema-wide certificate channel
//
//	cdone@cast/2, cdone@mem/2: (origin, w) — the ORIGIN, who knows its
//	own fragment and (via All) the node set, certifies that node w
//	holds every one of its facts.
//
// The certificates are what the obliviousness of Flood cannot provide:
// from ∀u∈All (u, Id) ∈ cdone@mem a node KNOWS its collection is the
// complete input, and from ∀u,w∈All (u,w) it knows replication is
// complete everywhere. Everything is gossiped, so the construction
// works on arbitrary connected networks, and own contributions are
// inserted directly into memory, so it also works on the single-node
// network where no message is ever delivered. Memories are sent
// verbatim, and the inserts are FO:
//
//	castm(i,x̄)  := cast(i,x̄) ∨ (Id(i) ∧ R(x̄))
//	ackm(w,i,x̄) := ack(w,i,x̄) ∨ (Id(w) ∧ castm(i,x̄))
//	cdone(i,w)  := cdone@cast(i,w) ∨ (Id(i) ∧ All(w) ∧
//	               ⋀_R ¬∃x̄ (Id(i) ∧ All(w) ∧ R(x̄) ∧ ¬ackm(w,i,x̄)))
//
// Repeating Id(i) and All(w) inside the negation binds every inner
// variable by an atom, so no inner query ranges over the active domain.
func taggedSubstrate(b *transducer.Builder, in fact.Schema) {
	id, all := transducer.SysId, transducer.SysAll
	b.Msg(cdoneMsg, 2).Mem(cdoneMem, 2).
		Snd(cdoneMsg, copyQuery(cdoneMem, "i", "w"))
	certified := []fo.Formula{fo.AtomF(id, "i"), fo.AtomF(all, "w")}
	for _, rel := range in.Names() {
		k := in[rel]
		x := tupleVars(k)
		ix := append([]string{"i"}, x...)
		wix := append([]string{"w"}, ix...)
		cast, castm := rel+castMsgSuffix, rel+castMemSuffix
		ack, ackm := rel+ackMsgSuffix, rel+ackMemSuffix
		b.Msg(cast, k+1).Mem(castm, k+1).
			Msg(ack, k+2).Mem(ackm, k+2).
			Snd(cast, copyQuery(castm, ix...)).
			Snd(ack, copyQuery(ackm, wix...))

		// Collect tagged facts: received ones plus my own, self-tagged.
		b.Ins(castm, fo.MustQuery("ins:"+castm, ix, fo.OrF(
			fo.AtomF(cast, ix...),
			fo.AndF(fo.AtomF(id, "i"), fo.AtomF(rel, x...)))))
		// Acknowledge everything collected: received acks plus my own.
		b.Ins(ackm, fo.MustQuery("ins:"+ackm, wix, fo.OrF(
			fo.AtomF(ack, wix...),
			fo.AndF(fo.AtomF(id, "w"), fo.AtomF(castm, ix...)))))

		certified = append(certified, fo.NotF(fo.ExistsF(x, fo.AndF(
			fo.AtomF(id, "i"), fo.AtomF(all, "w"), fo.AtomF(rel, x...),
			fo.NotF(fo.AtomF(ackm, wix...))))))
	}
	// Certify: I am the origin; node w has acknowledged every fact of
	// my own fragment.
	b.Ins(cdoneMem, fo.MustQuery("ins:"+cdoneMem, []string{"i", "w"}, fo.OrF(
		fo.AtomF(cdoneMsg, "i", "w"),
		fo.AndF(certified...))))
}

// tupleVars returns the variables x1, ..., xk of a k-ary tuple.
func tupleVars(k int) []string {
	x := make([]string, k)
	for i := range x {
		x[i] = fmt.Sprintf("x%d", i+1)
	}
	return x
}

// copyQuery is the FO query returning relation rel verbatim.
func copyQuery(rel string, head ...string) *fo.Query {
	return fo.MustQuery("copy:"+rel, head, fo.AtomF(rel, head...))
}

// Multicast returns the Lemma 5(1) transducer: replication of the
// input instance to every node WITH completion detection. When a node
// raises the nullary memory flag Ready, every node holds the full
// instance. The knowledge costs coordination: the transducer reads Id
// and All, and its acknowledgement traffic is the message overhead
// measured against Flood by experiments E3/E4. An optional output
// query of the given arity is evaluated on the collected instance once
// replication is certified complete (nil means no output).
func Multicast(in fact.Schema, out query.Query, outArity int) (*transducer.Transducer, error) {
	b, err := collectBuilder("multicast", in, out, outArity)
	if err != nil {
		return nil, err
	}
	// Ready() := ¬∃u,w (All(u) ∧ All(w) ∧ ¬cdone@mem(u,w)): every
	// origin has certified every node.
	all := transducer.SysAll
	return b.Mem(readyRel, 0).
		Ins(readyRel, fo.MustQuery("ins:"+readyRel, nil, fo.NotF(fo.ExistsF([]string{"u", "w"},
			fo.AndF(fo.AtomF(all, "u"), fo.AtomF(all, "w"), fo.NotF(fo.AtomF(cdoneMem, "u", "w"))))))).
		Build()
}

// CollectThenCompute returns the Theorem 6(1) transducer: every node
// collects the complete input through the tagged substrate and, once
// the certificates prove its collection complete, evaluates q — an
// ARBITRARY computable query, monotone or not — on it. This is how a
// computationally complete language distributedly computes every
// (generic, computable) query, at the price of reading Id and All.
func CollectThenCompute(in fact.Schema, q query.Query) (*transducer.Transducer, error) {
	if q == nil {
		return nil, fmt.Errorf("dist: CollectThenCompute needs a query")
	}
	b, err := collectBuilder("collectThenCompute", in, q, q.Arity())
	if err != nil {
		return nil, err
	}
	return b.Build()
}

// collectBuilder starts a transducer on the tagged substrate whose
// output (none for a nil q) is q, evaluated on the collected instance,
// behind the gate that every origin has certified THIS node's
// collection complete:
//
//	complete() := ∃i (Id(i) ∧ ¬∃u (Id(i) ∧ All(u) ∧ ¬cdone@mem(u,i)))
//	out(x̄)     := complete() ∧ result(x̄)
//
// where result is q composed with the collected input, so q may read
// only relations of the input schema.
func collectBuilder(name string, in fact.Schema, q query.Query, outArity int) (*transducer.Builder, error) {
	b := transducer.NewBuilder(name, in)
	taggedSubstrate(b, in)
	if q == nil {
		return b.Out(outArity, nil), nil
	}
	result, err := query.Compose(q, collectedDefs(in, true))
	if err != nil {
		return nil, err
	}
	id, all := transducer.SysId, transducer.SysAll
	complete := fo.MustQuery("complete", nil, fo.ExistsF([]string{"i"}, fo.AndF(
		fo.AtomF(id, "i"),
		fo.NotF(fo.ExistsF([]string{"u"}, fo.AndF(
			fo.AtomF(id, "i"), fo.AtomF(all, "u"), fo.NotF(fo.AtomF(cdoneMem, "u", "i"))))))))
	x := tupleVars(q.Arity())
	gated, err := query.Compose(fo.MustQuery("gated", x, fo.AndF(fo.AtomF("complete"), fo.AtomF("result", x...))),
		map[string]query.Query{"complete": complete, "result": result})
	if err != nil {
		return nil, err
	}
	return b.Out(q.Arity(), gated), nil
}

// Emptiness returns the Example 10 transducer: the non-monotone
// emptiness query (output the empty tuple iff S = ∅). No oblivious
// transducer can compute it — a node can never know it has seen all of
// S — so the construction collects with certificates and decides after
// completion. The paper's canonical coordination-requiring query.
func Emptiness() *transducer.Transducer {
	tr, err := CollectThenCompute(fact.Schema{"S": 1},
		fo.MustQuery("emptiness", nil, fo.NotF(fo.ExistsF([]string{"x"}, fo.AtomF("S", "x")))))
	if err != nil {
		panic(err) // fixed schema and query; cannot fail
	}
	tr.Name = "emptiness"
	return tr
}

// EvenCardinality returns the Corollary 8 transducer: the parity query
// "“|S| is even”", which no while-program can express on unordered
// inputs. Distributed evaluation provides what the single site lacks:
// completion certificates that let a node count a fully collected S.
func EvenCardinality() (*transducer.Transducer, error) {
	tr, err := CollectThenCompute(fact.Schema{"S": 1},
		query.NewFunc("evenCardinality", 0, []string{"S"}, false,
			func(I *fact.Instance) (*fact.Relation, error) {
				out := I.Dict().NewRelation(0)
				if I.RelationOr("S", 1).Len()%2 == 0 {
					out.Add(fact.Tuple{})
				}
				return out, nil
			}))
	if err != nil {
		return nil, err
	}
	tr.Name = "evenCardinality"
	return tr, nil
}
