package transducer

import (
	"fmt"
	"strings"

	"declnet/internal/query"
)

// ExplainPlans renders the compiled physical plan of every query of
// the transducer — send, insert and delete queries in sorted relation
// order, then the output query — in the stable textual form of the
// plan layer (chosen atom order, probe columns, filter placement,
// delta pins). The rendering exists to make plan regressions
// diffable: commit it, change the planner, diff.
func ExplainPlans(t *Transducer) string {
	var b strings.Builder
	fmt.Fprintf(&b, "transducer %s\n", t.Name)
	section := func(kind string, rel string, q query.Query) {
		if q == nil {
			return
		}
		fmt.Fprintf(&b, "== %s", kind)
		if rel != "" {
			fmt.Fprintf(&b, " %s", rel)
		}
		b.WriteString(" ==\n")
		b.WriteString(query.ExplainPlan(q))
	}
	for _, rel := range t.Schema.Msg.Names() {
		section("snd", rel, t.Snd[rel])
	}
	for _, rel := range t.Schema.Mem.Names() {
		section("ins", rel, t.Ins[rel])
		section("del", rel, t.Del[rel])
	}
	section("out", "", t.Out)
	return b.String()
}
