package bench

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// probe helper for interactive calibration; kept as a skipped-by-default
// diagnostic (run with -run TestHistoryProbe -v).
func TestHistoryProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic probe")
	}
	const n = 500_000
	mk := func(hist string) sim.Config {
		cfg, err := ittagePoint(hist).SimConfig()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	ws := workload.All()
	ws = append(ws, workload.Extras()...)
	for _, w := range ws {
		a := sim.RunAccuracy(w, n, mk("path-indjmp"))
		b := sim.RunAccuracy(w, n, mk("path-control"))
		c := sim.RunAccuracy(w, n, mk("pattern"))
		t.Logf("%-9s ittage: indjmp %6.2f%% control %6.2f%% pattern %6.2f%%",
			w.Name, 100*a.IndirectMispredictRate(), 100*b.IndirectMispredictRate(),
			100*c.IndirectMispredictRate())
	}
}
