package main

import "testing"

// TestStepBudget pins the -steps default: 200 steps per node for a
// scale profile (enough for the documented ring:10000 run, which needs
// 260000), the flag value otherwise or when -steps is given.
func TestStepBudget(t *testing.T) {
	for _, c := range []struct {
		steps int
		given bool
		n     int
		want  int
	}{
		{200000, false, 10000, 2_000_000},
		{200000, false, 100, 20000},
		{200000, true, 10000, 200000},
		{50, true, 10000, 50},
		{200000, false, 0, 200000},
	} {
		if got := stepBudget(c.steps, c.given, c.n); got != c.want {
			t.Errorf("stepBudget(%d, %v, %d) = %d, want %d", c.steps, c.given, c.n, got, c.want)
		}
	}
}
