package bench

import (
	"testing"
)

// TestExperimentsDeterministic runs a representative accuracy experiment
// and a representative timing experiment twice and requires bit-identical
// tables: workloads are seeded, predictors are state machines, and the
// timing models contain no wall-clock or map-iteration dependence.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs experiments twice")
	}
	p := Params{AccuracyBudget: 100_000, TimingBudget: 60_000}
	for _, id := range []string{"table2", "figures12-13", "followups"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		a := e.Run(p)
		b := e.Run(p)
		if len(a) != len(b) {
			t.Fatalf("%s: table counts differ", id)
		}
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Errorf("%s: table %d differs between runs:\n--- first\n%s\n--- second\n%s",
					id, i, a[i], b[i])
			}
		}
	}
}

// TestEventModelMatchesFastOnOrderings re-runs the figures12-13 experiment
// on both timing models and checks the paper claim (tagged >= tagless at
// high associativity; the reverse at 1-way) holds under each.
func TestEventModelMatchesFastOnOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure experiment on two models")
	}
	e, err := ByID("figures12-13")
	if err != nil {
		t.Fatal(err)
	}
	for _, event := range []bool{false, true} {
		p := Params{AccuracyBudget: 100_000, TimingBudget: 150_000, EventModel: event}
		tables := e.Run(p)
		for _, tab := range tables {
			first := tab.Rows[0]
			last := tab.Rows[len(tab.Rows)-1]
			var taglessLo, taggedLo, taglessHi, taggedHi float64
			mustParse(t, first[1], &taglessLo)
			mustParse(t, first[2], &taggedLo)
			mustParse(t, last[1], &taglessHi)
			mustParse(t, last[2], &taggedHi)
			if taggedLo > taglessLo+1.0 {
				t.Errorf("event=%v %s: 1-way tagged (%v) should not beat tagless (%v) clearly",
					event, tab.Title, taggedLo, taglessLo)
			}
			if taggedHi < taglessHi-1.0 {
				t.Errorf("event=%v %s: 16-way tagged (%v) should not lose to tagless (%v)",
					event, tab.Title, taggedHi, taglessHi)
			}
		}
	}
}

// TestSensitivityRunsTheFastModel: sensitivity reports misprediction
// stall cycles, which only the fast timing model measures, so switching
// the other timing experiments to the event model must not change it.
func TestSensitivityRunsTheFastModel(t *testing.T) {
	e, err := ByID("sensitivity")
	if err != nil {
		t.Fatal(err)
	}
	p := Params{AccuracyBudget: 60_000, TimingBudget: 40_000}
	fast := e.Run(p)
	p.EventModel = true
	event := e.Run(p)
	for i := range fast {
		if fast[i].String() != event[i].String() {
			t.Errorf("table %d differs under the event model:\n%s\nwant:\n%s", i, event[i], fast[i])
		}
	}
}

func mustParse(t *testing.T, cell string, v *float64) {
	t.Helper()
	if _, err := fmtSscanf(cell, v); err != nil {
		t.Fatalf("bad cell %q: %v", cell, err)
	}
}
