package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bench"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric, its unit and which direction is better (as
// BENCHMARK.json records them).
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics of the untraced run, each a median over its
// iterations. All are host-time metrics of the simulator.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"minstr_per_s", "Minstr/s", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer lists the traced run's metrics. Every workload prints every
// row; a layer a workload does not reach reads 0.
func perLayer() []metricDef {
	defs := []metricDef{
		{"workload.capture_ns_per_instr", "ns/instr", "lower"},
		{"workload.capture_bytes_per_instr", "B/instr", "lower"},
		{"workload.capture_alloc_bytes_per_instr", "B/instr", "lower"},
		{"workload.captures", "count", "lower"},
		{"workload.spill_ns_per_instr", "ns/instr", "lower"},
		{"workload.spill_disk_bytes_per_instr", "B/instr", "lower"},
		{"trace.store_read_ns_per_instr.flate", "ns/instr", "lower"},
		{"trace.store_read_ns_per_instr.raw", "ns/instr", "lower"},
		{"trace.store_read_alloc_bytes_per_instr", "B/instr", "lower"},
		{"trace.store_cache_hit_ratio", "ratio", "higher"},
		{"trace.store_group_decodes", "count", "lower"},
	}
	for _, f := range accuracyFamilies {
		defs = append(defs, metricDef{"sim.accuracy_ns_per_instr." + f.name, "ns/instr", "lower"})
	}
	defs = append(defs,
		metricDef{"sim.accuracy_alloc_bytes_per_instr", "B/instr", "lower"},
		metricDef{"sim.cbt_ns_per_instr", "ns/instr", "lower"})
	for _, w := range gangWidths {
		defs = append(defs, metricDef{fmt.Sprintf("sim.gang_ns_per_member_instr.w%d", w), "ns/instr", "lower"})
	}
	defs = append(defs,
		metricDef{"sim.gang_alloc_bytes_per_member_instr", "B/instr", "lower"},
		metricDef{"sim.segment_prime_frac", "ratio", "lower"},
		metricDef{"sim.telemetry_overhead_frac.counters", "ratio", "lower"},
		metricDef{"sim.telemetry_overhead_frac.full", "ratio", "lower"},
		metricDef{"cpu.replay_ns_per_instr.btb", "ns/instr", "lower"},
		metricDef{"cpu.replay_ns_per_instr.tagged-path", "ns/instr", "lower"},
		metricDef{"cpu.event_ns_per_instr", "ns/instr", "lower"},
		metricDef{"cpu.alloc_bytes_per_instr", "B/instr", "lower"})
	for _, e := range bench.All() {
		defs = append(defs, metricDef{"bench.experiment_s." + e.ID, "s", "lower"})
	}
	return append(defs,
		metricDef{"bench.cells", "count", "lower"},
		metricDef{"bench.sim_instr", "count", "lower"},
		metricDef{"bench.cpu_util", "ratio", "higher"},
		metricDef{"bench.unattributed_frac", "ratio", "lower"},
		metricDef{"sweep.plan_s", "s", "lower"},
		metricDef{"sweep.passes", "count", "lower"},
		metricDef{"sweep.passes_avoided", "count", "higher"},
		metricDef{"sweep.gang_fallbacks", "count", "lower"},
		metricDef{"sweep.cpu_util", "ratio", "higher"},
		metricDef{"sweep.report_s", "s", "lower"},
		metricDef{"sweep.unattributed_frac", "ratio", "lower"},
		metricDef{"tracing_overhead_frac", "ratio", "lower"},
	)
}

// quartiles returns the first quartile, median and third quartile of v
// (Python's statistics.quantiles exclusive method, as the benchmark's
// acceptance check computes spreads).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		m := p * float64(n+1)
		j := int(math.Floor(m))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}

// summarise checks every iteration against the wanted digest (and, on
// suite, the paper's claims), asserts path identity between each traced
// iteration and the untraced one before it, and assembles the result. An
// iteration whose output check fails counts all its operations as failed.
func summarise(job string, nominal int64, want string, plain, traced []*iteration) *result {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, it := range append(append([]*iteration(nil), plain...), traced...) {
		res.Attempted += it.Ops
		if it.Digest != want || !it.ClaimsOK {
			res.Failed += it.Ops
			res.Correct = false
			fmt.Printf("perfbench: %s output check failed (digest %s, want %s, claims ok %v)\n", job, it.Digest, want, it.ClaimsOK)
			continue
		}
		res.Failed += it.OpsFailed
		if it.OpsFailed > 0 {
			res.Correct = false
		}
	}
	for i, t := range traced {
		p := plain[i]
		if t.SimInstr != p.SimInstr || t.Segments != p.Segments || t.GangFallbacks != 0 || p.GangFallbacks != 0 {
			fmt.Printf("perfbench: traced run took another path: sim_instr %d vs %d, segments %+v vs %+v, gang fallbacks %d/%d\n",
				t.SimInstr, p.SimInstr, t.Segments, p.Segments, t.GangFallbacks, p.GangFallbacks)
			res.Correct = false
			res.Failed = res.Attempted
		}
	}
	res.Attempted = max(res.Attempted, 1)

	series := func(f func(*iteration) float64) []float64 {
		v := make([]float64, len(plain))
		for i, it := range plain {
			v[i] = f(it)
		}
		return v
	}
	values := map[string][]float64{
		"wall_s":       series(func(it *iteration) float64 { return it.WallS }),
		"setup_s":      series(func(it *iteration) float64 { return it.SetupS }),
		"cpu_s":        series(func(it *iteration) float64 { return it.CPUS }),
		"minstr_per_s": series(func(it *iteration) float64 { return float64(nominal) / 1e6 / it.WallS }),
		"peak_rss_mb":  series(func(it *iteration) float64 { return it.PeakRSSMB }),
	}
	fmt.Printf("perfbench: %s, %d untraced iteration(s), %d traced\n", job, len(plain), len(traced))
	for _, d := range endToEnd {
		q1, med, q3 := quartiles(values[d.name])
		fmt.Printf("  %-14s %12.4f %-9s q1 %.4f  q3 %.4f  n=%d\n", d.name, med, d.unit, q1, q3, len(plain))
		if len(traced) == 0 {
			res.Metrics[d.name] = metric{med, d.unit}
		}
	}
	fmt.Printf("  %-14s %12.4f %-9s (%d of %d operations)\n", "failed_frac",
		float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	if len(traced) == 0 {
		return res
	}

	for _, d := range perLayer() {
		v := make([]float64, len(traced))
		for i, it := range traced {
			v[i] = it.Layers[d.name]
		}
		res.Metrics[d.name] = metric{median(v), d.unit}
	}
	tracedWall := make([]float64, len(traced))
	for i, it := range traced {
		tracedWall[i] = it.WallS
	}
	res.Metrics["tracing_overhead_frac"] = metric{median(tracedWall)/median(values["wall_s"]) - 1, "ratio"}
	for _, d := range perLayer() {
		fmt.Printf("  %-44s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	return res
}
