package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"strconv"
	"testing"

	"repro/internal/sweep"
)

// benchmarkDef is the part of BENCHMARK.json the tests compare with the
// command's metric tables.
type benchmarkDef struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadDef(t *testing.T) benchmarkDef {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

func fakeIteration(digest string) *iteration {
	return &iteration{
		SetupS: 0.5, WallS: 2, CPUS: 3.5, PeakRSSMB: 100, Digest: digest,
		Ops: 10, ClaimsOK: true, SimInstr: 1000, Layers: map[string]float64{},
	}
}

// TestEveryMetricPrintedWithUnit checks that the metric tables match
// BENCHMARK.json and that the result line carries every metric it names,
// with its unit: the end-to-end ones untraced, the per-layer ones traced.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	def := loadDef(t)
	layers := perLayer()
	if len(def.PerLayer) != len(layers) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the command %d", len(def.PerLayer), len(layers))
	}
	for i, d := range layers {
		if i < len(def.PerLayer) && (def.PerLayer[i].Name != d.name || def.PerLayer[i].Unit != d.unit || def.PerLayer[i].Better != d.better) {
			t.Errorf("per_layer[%d] = %+v, command has %+v", i, def.PerLayer[i], d)
		}
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the command %d", len(def.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if i < len(def.EndToEnd) && (def.EndToEnd[i].Name != d.name || def.EndToEnd[i].Unit != d.unit || def.EndToEnd[i].Better != d.better) {
			t.Errorf("end_to_end[%d] = %+v, command has %+v", i, def.EndToEnd[i], d)
		}
	}

	check := func(res *result, want []struct{ Name, Unit, Better string }) {
		t.Helper()
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Metrics map[string]metric
		}
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("result has %d metrics, want %d", len(got.Metrics), len(want))
		}
		for _, m := range want {
			if g, ok := got.Metrics[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("metric %s printed as %+v (present %v), want unit %q", m.Name, g, ok, m.Unit)
			}
		}
	}
	plain := []*iteration{fakeIteration("d"), fakeIteration("d")}
	check(summarise("suite", 1000, "d", plain, nil), def.EndToEnd)
	check(summarise("suite", 1000, "d", plain, []*iteration{fakeIteration("d")}), def.PerLayer)
}

// TestCorruptDigestFailsEveryOperation: an output that does not match the
// expected digest fails all the operations of its iteration, so a wholly
// mismatched run reads failed_frac = 1.
func TestCorruptDigestFailsEveryOperation(t *testing.T) {
	plain := []*iteration{fakeIteration("aa"), fakeIteration("aa"), fakeIteration("aa")}
	res := summarise("suite", 1000, "ab", plain, nil)
	if res.Correct || res.Failed != res.Attempted || res.Attempted != 30 {
		t.Errorf("corrupted digest: correct=%v failed=%d attempted=%d, want failed_frac 1", res.Correct, res.Failed, res.Attempted)
	}
	res = summarise("suite", 1000, "aa", plain, nil)
	if !res.Correct || res.Failed != 0 {
		t.Errorf("matching digest: correct=%v failed=%d", res.Correct, res.Failed)
	}

	// A traced iteration that simulated different work took another path.
	traced := fakeIteration("aa")
	traced.SimInstr++
	if res := summarise("suite", 1000, "aa", plain[:1], []*iteration{traced}); res.Correct || res.Failed != res.Attempted {
		t.Errorf("path change: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestPeakRSSResetsBetweenRuns runs a child that touches 256 MiB and then
// one that touches little: the second's peak must be its own.
func TestPeakRSSResetsBetweenRuns(t *testing.T) {
	if mb := os.Getenv("PERFBENCH_TEST_TOUCH_MB"); mb != "" {
		n, _ := strconv.Atoi(mb)
		buf := make([]byte, n<<20)
		for i := range buf {
			buf[i] = byte(i)
		}
		os.Stdout.Write(buf[:1])
		return
	}
	peak := func(mb int) float64 {
		cmd := exec.Command(os.Args[0], "-test.run=^TestPeakRSSResetsBetweenRuns$")
		cmd.Env = append(os.Environ(), "PERFBENCH_TEST_TOUCH_MB="+strconv.Itoa(mb))
		p, err := runMeasured(cmd)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	big, small := peak(256), peak(1)
	if big < 256 || small > big/4 {
		t.Errorf("peak RSS: %.1f MiB after touching 256 MiB, then %.1f MiB after touching 1 MiB", big, small)
	}
}

// TestSweepSpecFromSeed: every seed yields a valid grid of the smoke
// grid's size; a seed always yields the same bytes.
func TestSweepSpecFromSeed(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 64; seed++ {
		data := sweepSpec(seed)
		if !bytes.Equal(data, sweepSpec(seed)) {
			t.Fatalf("seed %d: spec not deterministic", seed)
		}
		seen[string(data)] = true
		spec, err := sweep.ParseSpec(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ex, err := spec.Expand()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(ex.Points) != sweepPoints || ex.SkippedInvalid != 0 {
			t.Errorf("seed %d: %d points, %d invalid; want %d, 0", seed, len(ex.Points), ex.SkippedInvalid, sweepPoints)
		}
	}
	if len(seen) < 32 {
		t.Errorf("64 seeds gave only %d distinct grids", len(seen))
	}
}

func TestNominalInstructionsRecorded(t *testing.T) {
	for name, want := range map[string]int64{
		"suite": 731_000_000, "sweep": sweepPoints * sweepBudget, "outofcore": 80_000_000,
	} {
		got, err := nominalInstructions("../BENCHMARK.json", name)
		if err != nil || got != want {
			t.Errorf("%s: nominal %d (%v), want %d", name, got, err, want)
		}
	}
}

func TestSelfSeconds(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", StartNS: 0, EndNS: 10e9},
		{ID: 2, Parent: 1, StartNS: 1e9, EndNS: 4e9},
		{ID: 3, Parent: 1, StartNS: 3e9, EndNS: 5e9}, // overlaps 2
		{ID: 4, Parent: 2, StartNS: 1e9, EndNS: 2e9}, // grandchild: not subtracted from root
	}
	if got := selfSeconds(spans, 1); got != 6 {
		t.Errorf("self time %v s, want 6", got)
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4) default (exclusive).
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
