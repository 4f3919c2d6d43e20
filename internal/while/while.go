// Package while implements the query language "while" of the paper
// (§2): first-order logic extended with relation assignment statements
// and while-loops. While-programs express exactly the queries
// computable by an FO-transducer on a single-node network (Lemma 5(3))
// and, distributedly, by FO-transducers on arbitrary networks
// (Theorem 6(3)).
//
// Programs operate on a store: the input instance plus program
// variables (relation names assigned by the program). Since a while
// program over a fixed input can only reach finitely many stores
// (queries cannot invent data elements), nontermination manifests as a
// repeated store at a loop head; Run detects this with the
// Abiteboul–Simon technique and reports ErrNonTerminating, making the
// partiality of while-computable queries concrete.
package while

import (
	"errors"
	"fmt"

	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/query"
)

// ErrNonTerminating is returned by Run when a while-loop repeats a
// store state, i.e. the program diverges on the given input and the
// expressed partial query is undefined there.
var ErrNonTerminating = errors.New("while: program does not terminate on this input")

// Stmt is a while-program statement.
type Stmt interface {
	isStmt()
	String() string
}

// Assign is the statement Rel := Q, overwriting relation Rel in the
// store with the result of evaluating Q on the current store.
type Assign struct {
	Rel string
	Q   query.Query
}

// While is the statement "while Cond do Body", with Cond an FO
// sentence evaluated on the current store.
type While struct {
	Cond fo.Formula
	Body []Stmt

	// cond is Cond compiled as a 0-ary query, set by New.
	cond *fo.Query
}

func (Assign) isStmt() {}
func (While) isStmt()  {}

func (a Assign) String() string { return fmt.Sprintf("%s := <query/%d>", a.Rel, a.Q.Arity()) }
func (w While) String() string {
	return fmt.Sprintf("while %s do { %d statements }", w.Cond, len(w.Body))
}

// Program is a while-program with a designated output relation.
type Program struct {
	Stmts []Stmt
	// Out is the relation holding the answer when the program halts.
	Out string
	// OutArity is the arity of the output relation.
	OutArity int

	// summary is the expressed query's summary, built by New.
	summary *query.Summary
}

// New builds a program; the condition of every while-loop must be a
// sentence (no free variables), and is compiled here, once, as a
// 0-ary query. The expressed query's summary is built here too.
func New(out string, outArity int, stmts ...Stmt) (*Program, error) {
	var compile func([]Stmt) ([]Stmt, error)
	compile = func(ss []Stmt) ([]Stmt, error) {
		out := make([]Stmt, len(ss))
		for i, s := range ss {
			if w, ok := s.(While); ok {
				if fv := fo.FreeVars(w.Cond); len(fv) != 0 {
					return nil, fmt.Errorf("while: loop condition %s has free variables %v", w.Cond, fv)
				}
				body, err := compile(w.Body)
				if err != nil {
					return nil, err
				}
				if w.cond, err = fo.NewQuery("while", nil, w.Cond); err != nil {
					return nil, err
				}
				w.Body, s = body, w
			}
			out[i] = s
		}
		return out, nil
	}
	compiled, err := compile(stmts)
	if err != nil {
		return nil, err
	}
	p := &Program{Stmts: compiled, Out: out, OutArity: outArity}
	p.summary = p.summarize()
	return p, nil
}

// MustNew is New panicking on error.
func MustNew(out string, outArity int, stmts ...Stmt) *Program {
	p, err := New(out, outArity, stmts...)
	if err != nil {
		panic(err)
	}
	return p
}

// Run executes the program on the input instance and returns the final
// store. It returns ErrNonTerminating when a loop repeats a store.
func (p *Program) Run(input *fact.Instance) (*fact.Instance, error) {
	store := input.Clone()
	if err := runBlock(p.Stmts, store); err != nil {
		return nil, err
	}
	return store, nil
}

func runBlock(stmts []Stmt, store *fact.Instance) error {
	for _, s := range stmts {
		switch st := s.(type) {
		case Assign:
			r, err := st.Q.Eval(store)
			if err != nil {
				return fmt.Errorf("while: assignment to %s: %w", st.Rel, err)
			}
			store.SetRelation(st.Rel, r)
		case While:
			cond := st.cond
			if cond == nil { // a statement New did not compile
				var err error
				if cond, err = fo.NewQuery("while", nil, st.Cond); err != nil {
					return fmt.Errorf("while: condition %s: %w", st.Cond, err)
				}
			}
			seen := map[string]bool{}
			for {
				holds, err := cond.Eval(store)
				if err != nil {
					return fmt.Errorf("while: condition %s: %w", st.Cond, err)
				}
				if holds.Empty() {
					break
				}
				// Abiteboul–Simon loop detection: the store determines
				// all future behaviour, so a repeat means divergence.
				key := store.String()
				if seen[key] {
					return ErrNonTerminating
				}
				seen[key] = true
				if err := runBlock(st.Body, store); err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("while: unknown statement %T", s)
		}
	}
	return nil
}

// Query adapts the program to query.Query: the expressed (partial)
// query maps an input instance to the output relation of the halted
// program, and is undefined (error) on inputs where the program
// diverges.
type Query struct{ P *Program }

// Arity implements query.Query.
func (q Query) Arity() int { return q.P.OutArity }

// Summary implements query.Query (monotone.go). A program New did not
// build is summarized on each call.
func (q Query) Summary() *query.Summary {
	if q.P.summary == nil {
		return q.P.summarize()
	}
	return q.P.summary
}

// Eval implements query.Query.
func (q Query) Eval(I *fact.Instance) (*fact.Relation, error) {
	store, err := q.P.Run(I)
	if err != nil {
		return nil, err
	}
	return store.RelationOr(q.P.Out, q.P.OutArity).Clone(), nil
}
