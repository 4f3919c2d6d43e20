package dist

import (
	"fmt"

	"declnet/internal/datalog"
	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/query"
	"declnet/internal/transducer"
)

// floodSubstrate wires the untagged replication machinery of
// Lemma 5(2) into a builder: for every input relation R/k it declares
// the message relation R@flood/k and the accumulator memory R@acc/k,
// sends everything known on every transition, and accumulates both
// received and own facts. All queries are monotone and read neither Id
// nor All, keeping the construction oblivious.
func floodSubstrate(b *transducer.Builder, in fact.Schema) {
	for _, rel := range in.Names() {
		k := in[rel]
		msg, acc := rel+floodMsgSuffix, rel+accMemSuffix
		x := tupleVars(k)
		b.Msg(msg, k).Mem(acc, k).
			Snd(msg, fo.MustQuery("snd:"+msg, x, fo.OrF(fo.AtomF(rel, x...), fo.AtomF(acc, x...)))).
			Ins(acc, fo.MustQuery("ins:"+acc, x, fo.OrF(fo.AtomF(rel, x...), fo.AtomF(acc, x...), fo.AtomF(msg, x...))))
	}
}

// collectedDefs defines each input relation R as the node's collected
// fragment R(x̄) ∨ R@acc(x̄), or R(x̄) ∨ ∃i R@castm(i,x̄) when tagged: a
// query composed with them evaluates on Collected(state, in, tagged).
func collectedDefs(in fact.Schema, tagged bool) map[string]query.Query {
	defs := make(map[string]query.Query, len(in))
	for rel, k := range in {
		x := tupleVars(k)
		gathered := fo.Formula(fo.AtomF(rel+accMemSuffix, x...))
		if tagged {
			gathered = fo.ExistsF([]string{"i"}, fo.AtomF(rel+castMemSuffix, append([]string{"i"}, x...)...))
		}
		defs[rel] = fo.MustQuery("collected:"+rel, x, fo.OrF(fo.AtomF(rel, x...), gathered))
	}
	return defs
}

// Flood returns the Lemma 5(2) transducer: oblivious replication of
// the input instance over the given schema. Every node eventually
// holds the entire instance (retrievable with Collected), but no node
// can ever KNOW replication has finished — the price of obliviousness,
// paid back in the far lower message count compared to Multicast.
// An optional output query of the given arity is evaluated
// continuously on the collected fragment; it must read only the input
// schema and be syntactically monotone (nil means no output).
func Flood(in fact.Schema, out query.Query, outArity int) (*transducer.Transducer, error) {
	if out != nil && !out.SyntacticallyMonotone() {
		return nil, fmt.Errorf("dist: Flood streams continuously and needs a syntactically monotone output query; use CollectThenCompute for %v", out.Rels())
	}
	b := transducer.NewBuilder("flood", in)
	floodSubstrate(b, in)
	if out == nil {
		return b.Out(outArity, nil).Build()
	}
	c, err := query.Compose(out, collectedDefs(in, false))
	if err != nil {
		return nil, err
	}
	return b.Out(c.Arity(), c).Build()
}

// MonotoneStreaming returns the Theorem 6(2)/(4) transducer: an
// oblivious, inflationary streaming evaluation of a monotone query q
// over the input schema. The input is flooded; every node continuously
// outputs q of its collected fragment. Monotonicity makes every
// intermediate output a subset of q(I), so the accumulated run output
// is exactly q(I) on every network, partition and fair run.
func MonotoneStreaming(in fact.Schema, q query.Query) (*transducer.Transducer, error) {
	if q == nil {
		return nil, fmt.Errorf("dist: MonotoneStreaming needs a query")
	}
	if !q.SyntacticallyMonotone() {
		return nil, fmt.Errorf("dist: MonotoneStreaming requires a syntactically monotone query (got one reading %v); use CollectThenCompute instead", q.Rels())
	}
	tr, err := Flood(in, q, q.Arity())
	if err != nil {
		return nil, err
	}
	tr.Name = "monotoneStreaming"
	return tr, nil
}

// DatalogStreaming returns the Theorem 6(5) transducer: a positive
// Datalog program used directly as the transducer language. The EDB is
// flooded and the program's answer predicate is streamed from every
// node's collected fragment.
func DatalogStreaming(p *datalog.Program, ans string) (*transducer.Transducer, error) {
	if !p.IsPositive() {
		return nil, fmt.Errorf("dist: DatalogStreaming requires a positive program (Theorem 6(5))")
	}
	q, err := datalog.NewQuery(p, ans)
	if err != nil {
		return nil, err
	}
	arities := p.Arities()
	in := fact.Schema{}
	for _, e := range p.EDB() {
		in[e] = arities[e]
	}
	tr, err := MonotoneStreaming(in, q)
	if err != nil {
		return nil, err
	}
	tr.Name = "datalogStreaming:" + ans
	return tr, nil
}
