package network

import (
	"errors"
	"testing"

	"declnet/internal/fact"
	"declnet/internal/fo"
	"declnet/internal/query"
	"declnet/internal/transducer"
)

func TestTraceEvents(t *testing.T) {
	s, err := NewSim(Line(2), floodEcho(), map[fact.Value]*fact.Instance{
		"n1": fact.FromFacts(ff("S", "a")),
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []TraceEvent
	s.Trace = func(ev TraceEvent) { events = append(events, ev) }

	if err := s.Heartbeat("n1"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeliverIndex("n2", 0); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("events = %d", len(events))
	}
	hb, del := events[0], events[1]
	if hb.Delivered != nil || hb.Node != "n1" || hb.Sent != 1 {
		t.Errorf("heartbeat event = %+v", hb)
	}
	// n1's heartbeat outputs its own S(a) (floodEcho outputs R ∪ S).
	if len(hb.NewOutput) != 1 {
		t.Errorf("heartbeat output = %v", hb.NewOutput)
	}
	if del.Delivered == nil || !del.Delivered.Equal(ff("M", "a")) {
		t.Errorf("delivery event = %+v", del)
	}
	if !del.StateChanged {
		t.Error("delivery should change n2's state (stores R(a))")
	}
}

// TestRuntimeErrorPropagates injects a failing query mid-run: the
// error must surface through Run, not be swallowed.
func TestRuntimeErrorPropagates(t *testing.T) {
	boom := errors.New("query exploded")
	failing := query.NewFunc("failing", 0, []string{"M"}, false,
		func(I *fact.Instance) (*fact.Relation, error) {
			if !I.RelationOr("M", 1).Empty() {
				return nil, boom
			}
			return fact.NewRelation(0), nil
		})
	tr := transducer.NewBuilder("faulty", fact.Schema{"S": 1}).
		Msg("M", 1).
		Mem("R", 0).
		Snd("M", fo.MustQuery("sndM", []string{"x"}, fo.AtomF("S", "x"))).
		Ins("R", failing).
		Out(1, fo.MustQuery("out", []string{"x"}, fo.AtomF("S", "x"))).
		MustBuild()
	s, err := NewSim(Line(2), tr, map[fact.Value]*fact.Instance{
		"n1": fact.FromFacts(ff("S", "a")),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(NewRandomScheduler(1), 1000)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}
