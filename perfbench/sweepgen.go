package main

import (
	"encoding/json"
	"math/rand"
	"sort"
)

// The sweep workload's grid comes from the seed. It keeps the family mix
// and size of the repository's sweep_smoke.json — per workload 36 btb, 70
// tagless, 128 tagged, 32 cascaded and 18 ittage points, 568 in all over
// perl and gcc — and its table sizes, which set most of a pass's cost; the
// seed draws the associativities, history lengths, tag widths and ITTAGE
// geometries, so every seed asks for about the same work. The btb family
// (72 of the 104 trace passes) is the smoke grid's. The program receives
// only the generated spec bytes, as tcsweep would read them from a file.

const (
	sweepBudget = 2_000_000
	sweepPoints = 568
)

var sweepWorkloads = []string{"perl", "gcc"}

// pick returns n distinct values of from, sorted ascending.
func pick(rng *rand.Rand, n int, from ...int) []int {
	idx := rng.Perm(len(from))[:n]
	out := make([]int, n)
	for i, j := range idx {
		out[i] = from[j]
	}
	sort.Ints(out)
	return out
}

// ints returns lo, lo+1, ..., hi.
func ints(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

// sweepSpec generates the sweep workload's spec JSON for seed.
func sweepSpec(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	type grid map[string]any
	spec := map[string]any{
		"name":      "perfbench",
		"budget":    sweepBudget,
		"workloads": sweepWorkloads,
		"grids": []grid{
			{"family": "btb", "schemes": []string{"default", "2bit"},
				"entries": "256..8192*2", "ways": []int{1, 2, 4}},
			{"family": "tagless", "schemes": []string{"gag", "gshare"},
				"entries": "64..4096*2", "hist_bits": pick(rng, 5, ints(2, 12)...)},
			{"family": "tagged", "schemes": []string{"xor", "concat"},
				"entries": []int{128, 256, 512, 1024}, "ways": pick(rng, 2, 1, 2, 4, 8),
				"hist_bits": pick(rng, 4, ints(2, 16)...), "tag_bits": pick(rng, 2, 8, 16, 32)},
			{"family": "cascaded", "stage1_entries": []int{64, 128}, "entries": []int{256, 512},
				"ways": pick(rng, 2, 1, 2, 4), "hist_bits": pick(rng, 2, ints(3, 12)...),
				"tag_bits": pick(rng, 2, 8, 16, 32)},
			{"family": "ittage", "stage1_entries": pick(rng, 2, 64, 128, 256, 512),
				"entries": pick(rng, 3, 32, 64, 128, 256), "tables": pick(rng, 3, 2, 3, 4, 5, 6)},
		},
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // plain maps of strings and ints always marshal
	}
	return data
}
