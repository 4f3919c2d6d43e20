package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/sa"
	"declnet/internal/transducer"
)

func TestLookupAllCatalogued(t *testing.T) {
	for _, name := range Names() {
		tr, err := Lookup(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if tr == nil {
			t.Errorf("%s: nil transducer", name)
		}
	}
	if _, err := Lookup("no-such-thing"); err == nil {
		t.Error("unknown name accepted")
	}
}

// TestCatalogueFOHasNoInterpreterPath: every FO query of every
// catalogue transducer runs on compiled join plans — no branch falls
// back to active-domain enumeration or calls back into a per-binding
// guard.
func TestCatalogueFOHasNoInterpreterPath(t *testing.T) {
	fo := 0
	for _, name := range Names() {
		tr, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(transducer.ExplainPlans(tr), "\n") {
			trimmed := strings.TrimSpace(line)
			switch {
			case strings.HasPrefix(trimmed, "fo query "):
				fo++
			case strings.Contains(line, "active-domain enumeration"), strings.Contains(line, "guard"):
				t.Errorf("%s: interpreter path in explain output: %q", name, line)
			}
		}
	}
	if fo == 0 {
		t.Fatal("no FO query in the catalogue's explain output")
	}
}

// TestCatalogueHasOneOpaqueQuery: every catalogue query evaluates
// through a compiled plan except parity's own Go query (Corollary 8:
// |S| is even is not FO-expressible).
func TestCatalogueHasOneOpaqueQuery(t *testing.T) {
	var opaque []string
	for _, name := range Names() {
		tr, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(transducer.ExplainPlans(tr), "\n") {
			if strings.Contains(line, "opaque query") {
				opaque = append(opaque, name+": "+strings.TrimSpace(line))
			}
		}
	}
	if want := "parity: opaque query (no compiled plan): arity 0, reads [S]"; len(opaque) != 1 || opaque[0] != want {
		t.Errorf("opaque explain lines = %q, want only %q", opaque, want)
	}
}

// TestCatalogueRefinedClasses pins the static analyzer's refined
// classification of every catalogue entry, as `calmlint` prints it.
// Rewriting a construction in another query language must leave these
// lines unchanged or make them more precise.
func TestCatalogueRefinedClasses(t *testing.T) {
	want := map[string]string{
		"either":     "oblivious=false usesId=false usesAll=true inflationary=true monotone=false",
		"emptiness":  "oblivious=false usesId=true usesAll=true inflationary=true monotone=false",
		"eqsel":      "oblivious=true usesId=false usesAll=false inflationary=true monotone=true",
		"first":      "oblivious=true usesId=false usesAll=false inflationary=true monotone=false",
		"flood1":     "oblivious=true usesId=false usesAll=false inflationary=true monotone=true",
		"flood2":     "oblivious=true usesId=false usesAll=false inflationary=true monotone=true",
		"gossip":     "oblivious=false usesId=true usesAll=false inflationary=true monotone=true",
		"multicast1": "oblivious=false usesId=true usesAll=true inflationary=true monotone=false",
		"multicast2": "oblivious=false usesId=true usesAll=true inflationary=true monotone=false",
		"parity":     "oblivious=false usesId=true usesAll=true inflationary=true monotone=false",
		"ping":       "oblivious=false usesId=false usesAll=true inflationary=true monotone=false",
		"relay":      "oblivious=true usesId=false usesAll=false inflationary=true monotone=true",
		"tc":         "oblivious=true usesId=false usesAll=false inflationary=true monotone=true",
	}
	names := Names()
	if len(names) != len(want) {
		t.Errorf("catalogue has %d entries, table pins %d", len(names), len(want))
	}
	for _, name := range names {
		tr, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := sa.Analyze(tr).Refined.String(); got != want[name] {
			t.Errorf("%s refined:\n got: %s\nwant: %s", name, got, want[name])
		}
	}
}

// lintGoldenPath pins the whole static-analysis report of every
// catalogue entry. Regenerate (only when intentionally changing an
// analysis result) with:
//
//	GOLDEN_UPDATE=1 go test ./internal/registry -run TestCatalogueLintGolden
const lintGoldenPath = "testdata/lint_golden.txt"

// TestCatalogueLintGolden renders the full sa.Analyze report of every
// catalogue entry — dependency edges with their positions, the
// populated set, the provably-empty queries, every verdict with its
// witnesses and the per-relation monotonicity — and compares it with
// the committed golden file byte for byte.
func TestCatalogueLintGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range Names() {
		tr, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rep := sa.Analyze(tr)
		fmt.Fprintf(&b, "### %s\n%s", name, rep)
		fmt.Fprintf(&b, "  empty queries: %v\n", rep.EmptyQueries)
		verdict := func(label string, v sa.Verdict) {
			fmt.Fprintf(&b, "  %s: ok=%v\n", label, v.OK)
			for _, w := range v.Witnesses {
				fmt.Fprintf(&b, "    %s\n", strings.ReplaceAll(w.String(), "\n", "\n    "))
			}
		}
		verdict("monotone", rep.Monotone)
		verdict("oblivious", rep.Oblivious)
		verdict("inflationary", rep.Inflationary)
		verdict("stratified", rep.Stratified)
		rels := make([]string, 0, len(rep.RelMonotone))
		for rel := range rep.RelMonotone {
			rels = append(rels, rel)
		}
		sort.Strings(rels)
		for _, rel := range rels {
			verdict("relation "+rel+" monotone", rep.RelMonotone[rel])
		}
	}
	got := b.String()
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(lintGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lintGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(lintGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_UPDATE=1 to generate): %v", err)
	}
	want := strings.Split(string(raw), "\n")
	lines := strings.Split(got, "\n")
	for i := 0; i < len(lines) || i < len(want); i++ {
		var g, w string
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("lint report diverged from %s at line %d:\n got: %s\nwant: %s", lintGoldenPath, i+1, g, w)
		}
	}
}

func TestParseTopology(t *testing.T) {
	cases := []struct {
		spec  string
		nodes int
		ok    bool
	}{
		{"single", 1, true},
		{"line:4", 4, true},
		{"ring:5", 5, true},
		{"star:3", 3, true},
		{"complete:4", 4, true},
		{"random:6", 6, true},
		{"line", 0, false},
		{"line:x", 0, false},
		{"blob:4", 0, false},
		{"line:0", 0, false},
	}
	for _, c := range cases {
		n, err := ParseTopology(c.spec)
		if c.ok && (err != nil || n.Size() != c.nodes) {
			t.Errorf("ParseTopology(%q) = %v, %v", c.spec, n, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseTopology(%q) should fail", c.spec)
		}
	}
}

func TestParsePartition(t *testing.T) {
	I := fact.FromFacts(fact.NewFact("S", "a"), fact.NewFact("S", "b"))
	net, _ := ParseTopology("line:2")
	for _, spec := range []string{"roundrobin", "replicate", "first", "byrelation", "random:7"} {
		p, err := ParsePartition(spec, I, net)
		if err != nil {
			t.Errorf("%s: %v", spec, err)
			continue
		}
		if !p.Covers(I) {
			t.Errorf("%s: partition does not cover the instance", spec)
		}
	}
	if _, err := ParsePartition("nope", I, net); err == nil {
		t.Error("unknown partition accepted")
	}
	if _, err := ParsePartition("random:x", I, net); err == nil {
		t.Error("bad seed accepted")
	}
}
