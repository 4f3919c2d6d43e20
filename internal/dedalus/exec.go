package dedalus

import (
	"fmt"
	"math/rand"
	"strconv"

	"declnet/internal/fact"
)

// Exec is a stepwise Dedalus evaluator: one call to Step evaluates one
// timestamp. It underlies both the single-site Run and the distributed
// evaluation of §8's closing construction, where a peer's Exec steps
// once per transition of its node, taking the delivered EDB fact.
type Exec struct {
	p   *Program
	rng *rand.Rand

	maxDelay  int
	t         int
	scheduled map[int]*fact.Instance

	// dict is the interning dictionary every slice of this evaluator
	// lives in, adopted from the first non-nil input instance (nil
	// until then: slices use the process default). One evaluator, one
	// ID space — callers feeding per-run-dict temporal input get
	// per-run-dict slices back.
	dict *fact.Dict

	prevSlice *fact.Instance
	prevSeed  *fact.Instance
	// quiet reports that the last Step changed nothing relative to the
	// one before and nothing is pending internally; with no further
	// external input, all future slices are identical.
	quiet bool
}

// NewExec creates a stepwise evaluator.
func NewExec(p *Program, seed int64, maxAsyncDelay int) *Exec {
	if maxAsyncDelay <= 0 {
		maxAsyncDelay = 3
	}
	return &Exec{
		p:         p,
		rng:       rand.New(rand.NewSource(seed)),
		maxDelay:  maxAsyncDelay,
		scheduled: map[int]*fact.Instance{},
	}
}

// newSlice builds an empty instance in the evaluator's dictionary
// (the process default until an input dictionary is adopted).
func (e *Exec) newSlice() *fact.Instance {
	if e.dict != nil {
		return e.dict.NewInstance()
	}
	return fact.NewInstance()
}

// T returns the next timestamp to be evaluated.
func (e *Exec) T() int { return e.t }

// Quiet reports whether the evaluator has internally converged: absent
// further external EDB input, every future slice equals the last one.
func (e *Exec) Quiet() bool { return e.quiet }

// Step evaluates the slice at the current timestamp, taking extraEDB
// as the facts arriving now (may be nil), and advances the clock. It
// returns the completed slice (deductive fixpoint included).
func (e *Exec) Step(extraEDB *fact.Instance) (*fact.Instance, error) {
	t := e.t
	if e.dict == nil && extraEDB != nil {
		e.dict = extraEDB.Dict()
	}
	if extraEDB != nil && extraEDB.Dict() != e.dict {
		return nil, fmt.Errorf("dedalus: t=%d: input interned in a different dictionary from earlier input (rekey it with Instance.Rekey)", t)
	}
	seed := e.newSlice()
	if s := e.scheduled[t]; s != nil {
		seed.UnionWith(s)
		delete(e.scheduled, t)
	}
	externalInput := extraEDB != nil && !extraEDB.Empty()
	if extraEDB != nil {
		seed.UnionWith(extraEDB)
	}
	slice, err := e.p.deductive.EvalOwned(seed)
	if err != nil {
		return nil, fmt.Errorf("dedalus: t=%d: %w", t, err)
	}

	asyncFired := false
	now := fact.Value(strconv.Itoa(t))
	next := fact.Value(strconv.Itoa(t + 1))
	for _, tr := range e.p.temporal {
		r := tr.rule
		// The rule's plan was compiled once at New with NOW/NEXT as
		// input registers; only the timestamp values change per slice.
		heads, err := tr.compiled.Fire(slice, now, next)
		if err != nil {
			return nil, fmt.Errorf("dedalus: t=%d rule %s: %w", t, r, err)
		}
		target := t + 1
		if r.Kind == Async {
			if len(heads) > 0 {
				asyncFired = true
			}
			target = t + 1 + e.rng.Intn(e.maxDelay+1)
		}
		for _, h := range heads {
			if e.scheduled[target] == nil {
				e.scheduled[target] = e.newSlice()
			}
			e.scheduled[target].AddFact(h)
		}
	}

	pendingBeyond := false
	for ts := range e.scheduled {
		if ts > t+1 {
			pendingBeyond = true
			break
		}
	}
	e.quiet = e.prevSlice != nil && slice.Equal(e.prevSlice) && !asyncFired &&
		!pendingBeyond && !externalInput && seedEqual(e.scheduled[t+1], e.prevSeed)

	e.prevSlice = slice
	e.prevSeed = nil
	if s := e.scheduled[t+1]; s != nil {
		e.prevSeed = s.Clone()
	}
	e.t++
	return slice, nil
}
