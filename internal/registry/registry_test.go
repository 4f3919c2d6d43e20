package registry

import (
	"strings"
	"testing"

	"declnet/internal/fact"
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
