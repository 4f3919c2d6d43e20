// Package registry names the paper's transducers, topologies and
// partition strategies so the command-line tools can select them by
// string. It is the only glue between the CLIs and the construction
// library.
package registry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"declnet/internal/calm"
	"declnet/internal/dist"
	"declnet/internal/fact"
	"declnet/internal/network"
	"declnet/internal/transducer"
)

// Entry describes a named transducer.
type Entry struct {
	Build func() (*transducer.Transducer, error)
	// Paper is the paper locus of the construction.
	Paper string
	// Input describes the expected input schema.
	Input string
}

// Transducers returns the named transducer catalogue.
func Transducers() map[string]Entry {
	return map[string]Entry{
		"tc": {
			Build: func() (*transducer.Transducer, error) { return dist.TransitiveClosure(), nil },
			Paper: "Example 3", Input: "S/2 (edges)",
		},
		"eqsel": {
			Build: func() (*transducer.Transducer, error) { return dist.EqualitySelection(), nil },
			Paper: "Example 3", Input: "S/2",
		},
		"first": {
			Build: func() (*transducer.Transducer, error) { return dist.FirstElement(), nil },
			Paper: "Example 2 (inconsistent!)", Input: "S/1",
		},
		"relay": {
			Build: func() (*transducer.Transducer, error) { return dist.RelayOnly(), nil },
			Paper: "Example 4 (not topology-independent)", Input: "S/1",
		},
		"flood1": {
			Build: func() (*transducer.Transducer, error) { return dist.Flood(fact.Schema{"S": 1}, nil, 0) },
			Paper: "Lemma 5(2)", Input: "S/1",
		},
		"flood2": {
			Build: func() (*transducer.Transducer, error) { return dist.Flood(fact.Schema{"S": 2}, nil, 0) },
			Paper: "Lemma 5(2)", Input: "S/2",
		},
		"multicast1": {
			Build: func() (*transducer.Transducer, error) { return dist.Multicast(fact.Schema{"S": 1}, nil, 0) },
			Paper: "Lemma 5(1)", Input: "S/1",
		},
		"multicast2": {
			Build: func() (*transducer.Transducer, error) { return dist.Multicast(fact.Schema{"S": 2}, nil, 0) },
			Paper: "Lemma 5(1)", Input: "S/2",
		},
		"emptiness": {
			Build: func() (*transducer.Transducer, error) { return dist.Emptiness(), nil },
			Paper: "Example 10", Input: "S/1",
		},
		"either": {
			Build: func() (*transducer.Transducer, error) { return dist.EitherNonempty(), nil },
			Paper: "Section 5", Input: "A/1, B/1",
		},
		"ping": {
			Build: func() (*transducer.Transducer, error) { return dist.PingIdentity(), nil },
			Paper: "Example 15", Input: "S/1",
		},
		"parity": {
			Build: dist.EvenCardinality,
			Paper: "Corollary 8 (≥2 nodes)", Input: "S/1",
		},
		"gossip": {
			Build: func() (*transducer.Transducer, error) { return dist.Gossip(), nil },
			Paper: "E20 scaling workload (one-hop neighbourhood)", Input: "(none)",
		},
	}
}

// Names returns the catalogue keys, sorted.
func Names() []string {
	m := Transducers()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// topologyShapes is the dispatch table of ParseTopology; the "single"
// spec (no size) is handled separately there.
var topologyShapes = map[string]func(int) *network.Network{
	"line":     network.Line,
	"ring":     network.Ring,
	"star":     network.Star,
	"complete": network.Complete,
	"random":   func(k int) *network.Network { return network.RandomConnected(k, k/2, 42) },
}

// TopologyShapes returns the recognized topology shapes, sorted.
func TopologyShapes() []string {
	out := []string{"single"}
	for shape := range topologyShapes {
		out = append(out, shape)
	}
	sort.Strings(out)
	return out
}

// partitionStrategies is the dispatch table of ParsePartition; the
// seeded "random:SEED" spec is handled separately there.
var partitionStrategies = map[string]func(*fact.Instance, *network.Network) dist.Partition{
	"roundrobin": dist.RoundRobinSplit,
	"replicate":  dist.ReplicateAll,
	"first": func(I *fact.Instance, net *network.Network) dist.Partition {
		return dist.AllAtNode(I, net.Nodes()[0])
	},
	"byrelation": calm.SplitByRelation,
}

// PartitionNames returns the recognized partition strategy specs,
// sorted.
func PartitionNames() []string {
	out := []string{"random:SEED"}
	for name := range partitionStrategies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Lookup builds the named transducer.
func Lookup(name string) (*transducer.Transducer, error) {
	e, ok := Transducers()[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown transducer %q; available: %s", name, strings.Join(Names(), ", "))
	}
	return e.Build()
}

// ParseTopology parses "shape:size" (e.g. "line:4", "ring:3",
// "star:5", "complete:4", "random:6", "single").
func ParseTopology(spec string) (*network.Network, error) {
	if spec == "single" || spec == "single:1" {
		return network.Single(), nil
	}
	shape, sizeStr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("registry: topology %q must be shape:size; available shapes: %s",
			spec, strings.Join(TopologyShapes(), ", "))
	}
	size, err := strconv.Atoi(sizeStr)
	if err != nil || size < 1 {
		return nil, fmt.Errorf("registry: topology %q: size %q must be a positive integer", spec, sizeStr)
	}
	mk, ok := topologyShapes[shape]
	if !ok {
		return nil, fmt.Errorf("registry: unknown topology shape %q; available shapes: %s",
			shape, strings.Join(TopologyShapes(), ", "))
	}
	return mk(size), nil
}

// ParsePartition builds the named partition of I over the network:
// "roundrobin", "replicate", "first" (everything at the first node),
// "byrelation", or "random:SEED".
func ParsePartition(spec string, I *fact.Instance, net *network.Network) (dist.Partition, error) {
	if mk, ok := partitionStrategies[spec]; ok {
		return mk(I, net), nil
	}
	if strings.HasPrefix(spec, "random:") {
		seed, err := strconv.ParseInt(spec[len("random:"):], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("registry: partition %q: seed must be an integer (random:SEED)", spec)
		}
		return dist.RandomSplit(I, net, seed), nil
	}
	return nil, fmt.Errorf("registry: unknown partition %q; available: %s",
		spec, strings.Join(PartitionNames(), ", "))
}
