// Command datalogi is a stratified-Datalog interpreter: it evaluates a
// program against a facts file and prints the derived relations.
//
// Usage:
//
//	datalogi -program tc.dl -facts edges.dl [-query tc]
//
// Program syntax (see package declnet/datalog): uppercase identifiers are
// variables, lowercase and quoted identifiers are constants, rules end
// with periods, "not" negates, stratified negation required.
//
//	tc(X, Y) :- e(X, Y).
//	tc(X, Z) :- e(X, Y), tc(Y, Z).
//
// Facts files contain ground facts: "e(a, b). e(b, c)."
package main

import (
	"flag"
	"fmt"
	"os"

	"declnet/datalog"
)

func main() {
	programPath := flag.String("program", "", "path to the Datalog program")
	factsPath := flag.String("facts", "", "path to the ground facts")
	queryPred := flag.String("query", "", "print only this predicate (default: all IDB predicates)")
	flag.Parse()

	if *programPath == "" || *factsPath == "" {
		fmt.Fprintln(os.Stderr, "usage: datalogi -program FILE -facts FILE [-query PRED]")
		os.Exit(2)
	}
	progSrc, err := os.ReadFile(*programPath)
	if err != nil {
		fatal(err)
	}
	factsSrc, err := os.ReadFile(*factsPath)
	if err != nil {
		fatal(err)
	}
	prog, err := datalog.Parse(string(progSrc))
	if err != nil {
		fatal(err)
	}
	edb, err := datalog.ParseFacts(string(factsSrc))
	if err != nil {
		fatal(err)
	}

	strata, err := prog.Stratify()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%% %d rules, EDB %v, IDB %v, %d strata\n",
		len(prog.Rules), prog.EDB(), prog.IDB(), len(strata))

	out, err := prog.Eval(edb)
	if err != nil {
		fatal(err)
	}

	preds := prog.IDB()
	if *queryPred != "" {
		preds = []string{*queryPred}
	}
	arities := prog.Arities()
	for _, p := range preds {
		rel := out.RelationOr(p, arities[p])
		for _, t := range rel.Tuples() {
			fmt.Printf("%s%s\n", p, t)
		}
		fmt.Printf("%% %s: %d tuples\n", p, rel.Len())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datalogi:", err)
	os.Exit(1)
}
