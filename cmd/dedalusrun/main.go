// Command dedalusrun exercises the Theorem 18 pipeline: it compiles a
// library Turing machine to a Dedalus program, runs it on a word
// (encoded as a word structure), and prints the verdict, convergence
// timestamp and rule count — optionally on a distributed network of
// peers exchanging their input fragments (§8's closing construction).
// A distributed run floods the fragments on the transducer network
// runtime under the fair random scheduler; its convergence point counts
// network transitions and its message count counts deliveries.
//
// Usage:
//
//	dedalusrun -machine evenLength -word abab
//	dedalusrun -machine endsWithB -word aab -topology ring:3
//	dedalusrun -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"declnet"
	"declnet/dedalus"
	"declnet/run"
	"declnet/tm"
)

func main() {
	machine := flag.String("machine", "evenLength", "library machine name (see -list)")
	word := flag.String("word", "ab", "input word over the machine's alphabet (length ≥ 2)")
	topo := flag.String("topology", "", "run distributed on this topology (shape:size); empty = single site")
	seed := flag.Int64("seed", 1, "seed of the async rule scheduler and, when distributed, of the network schedule")
	maxT := flag.Int("maxt", 300, "timestamp budget")
	list := flag.Bool("list", false, "list library machines and exit")
	flag.Parse()

	if *list {
		for _, m := range tm.All() {
			fmt.Printf("%-12s alphabet=%v states: start=%s accept=%s transitions=%d\n",
				m.Name, m.Alphabet, m.Start, m.Accept, len(m.Delta))
		}
		return
	}

	var m *tm.Machine
	for _, cand := range tm.All() {
		if cand.Name == *machine {
			m = cand
		}
	}
	if m == nil {
		fatal(fmt.Errorf("unknown machine %q (try -list)", *machine))
	}
	letters := strings.Split(*word, "")
	direct := m.Run(letters, 100000)
	prog, err := dedalus.CompileTM(m)
	if err != nil {
		fatal(err)
	}
	I, err := tm.EncodeWord(letters)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("machine %s, word %q: direct run accepts=%v (%d steps)\n",
		m.Name, *word, direct.Accepted, direct.Steps)
	fmt.Printf("compiled to %d Dedalus rules; word structure has %d facts\n",
		len(prog.Rules), I.Size())

	if *topo == "" {
		trace, err := prog.Run(dedalus.TemporalInput{0: I}, dedalus.Options{MaxT: *maxT, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("single site: accept=%v convergedAt=%d slices=%d\n",
			trace.Holds(dedalus.AcceptPred), trace.ConvergedAt, len(trace.Slices))
		report(trace.Holds(dedalus.AcceptPred), direct.Accepted)
		return
	}

	net, err := run.ParseTopology(*topo)
	if err != nil {
		fatal(err)
	}
	nodes := net.Nodes()
	part := map[declnet.Value]*declnet.Instance{}
	for _, v := range nodes {
		part[v] = declnet.NewInstance()
	}
	for i, f := range I.Facts() {
		part[nodes[i%len(nodes)]].AddFact(f)
	}
	tr, err := dedalus.DistRun(prog, net, part, dedalus.DistOptions{MaxT: *maxT, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("distributed on %s: accept-everywhere=%v convergedAt=%d messages=%d\n",
		*topo, tr.Holds(dedalus.AcceptPred), tr.ConvergedAt, tr.Messages)
	report(tr.Holds(dedalus.AcceptPred), direct.Accepted)
}

func report(dedalusAccept, directAccept bool) {
	if dedalusAccept == directAccept {
		fmt.Println("AGREE with the direct Turing machine run")
		return
	}
	fmt.Println("MISMATCH with the direct run")
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dedalusrun:", err)
	os.Exit(1)
}
