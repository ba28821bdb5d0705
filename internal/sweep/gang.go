package sweep

import (
	"context"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/workload"
)

// Gang planning: within each checkpoint shard, points are grouped by
// (workload, history scheme) into gangs that sim.RunAccuracyGangCtx fuses
// into a single trace pass. The grouping rule follows what fusion can
// share: one workload means one decoded block stream, one history scheme
// means the gang's history registers collapse to one per distinct depth
// (the share key is scheme + depth). Every target-cache family rides the
// paper's baseline front end, so front-end state is shared by
// construction; btb-family points sweep that front end itself and always
// run direct. Gangs never cross shard boundaries — the shard remains the
// checkpoint/resume unit and manifests stay byte-identical at any width.

// TestPointHook, when non-nil, runs just before each point is simulated,
// inside the per-unit recover scope. The fault-injection harness uses it
// to prove a panicking point surfaces as a structured PointError instead
// of killing the sweep.
var TestPointHook func(pointKey string)

// PointError is a panic during point simulation, recovered into a
// structured per-unit error: the sweep stops cleanly (completed shards
// stay checkpointed) instead of crashing the process.
type PointError struct {
	// Keys are the points of the poisoned unit — a fused gang shares one
	// pass, so a panic cannot be attributed more precisely than the unit.
	Keys  []string
	Value any    // the recovered panic value
	Stack string // the panicking goroutine's stack
}

func (e *PointError) Error() string {
	if len(e.Keys) > 1 {
		return fmt.Sprintf("panic in a %d-point gang (%s): %v\n%s",
			len(e.Keys), strings.Join(e.Keys, ", "), e.Value, e.Stack)
	}
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// gangable reports whether the point can join a fused gang: every
// target-cache family runs the baseline front end, while btb-family
// points sweep the front-end geometry fusion shares.
func gangable(p Point) bool { return p.Family != "btb" }

// histShareKey identifies the point's exact history-provider
// configuration (scheme, depth and the path register's bits per target
// and address bit fully determine the provider, see historyProvider);
// equal keys within a gang share one register.
func histShareKey(p Point) string {
	return p.History + "#" + strconv.Itoa(p.HistBits) +
		"#" + strconv.Itoa(p.pathBitsPerTarget()) + "#" + strconv.Itoa(p.pathAddrBit())
}

// gangKey is the grouping key: one workload (one trace pass) and one
// history scheme (registers shared across the gang's depths).
func gangKey(p Point) string { return p.Workload + "\x00" + p.History }

// StateBytes estimates the point's in-memory predictor footprint, the
// quantity the auto-width planner budgets: fusing K points holds K
// predictor states live at once.
func (p Point) StateBytes() int64 {
	switch p.Family {
	case "btb":
		// ~5 words per BTB entry (tag, target, class, strategy state, LRU).
		return int64(p.Entries) * 40
	case "tagless":
		cfg, err := p.taglessConfig()
		if err != nil {
			return 0
		}
		return cfg.ApproxStateBytes()
	case "tagged":
		return p.taggedConfig().ApproxStateBytes()
	case "cascaded":
		return p.cascadedConfig().ApproxStateBytes()
	case "ittage":
		return p.ittageConfig().ApproxStateBytes()
	}
	return 0
}

const (
	// gangMemBudget is the soft per-gang predictor-state budget the
	// auto-width planner divides by the gang's largest member.
	gangMemBudget = 64 << 20
	// maxAutoWidth caps automatic gang width. Wider gangs amortize the
	// trace pass further but with diminishing returns once per-member
	// target-cache work dominates, and they enlarge the blast radius of a
	// failing member (the whole gang's pass is discarded). 16 keeps the
	// smoke grid's shards fusing in at most two passes while the kernel's
	// width scaling is still near-linear.
	maxAutoWidth = 16
)

// autoWidth picks a gang width for a bucket of points: the memory budget
// divided by the largest member's predictor state, clamped to
// [1, maxAutoWidth].
func autoWidth(points []Point, idxs []int) int {
	var maxState int64 = 1
	for _, i := range idxs {
		if s := points[i].StateBytes(); s > maxState {
			maxState = s
		}
	}
	w := int(gangMemBudget / maxState)
	if w < 1 {
		w = 1
	}
	if w > maxAutoWidth {
		w = maxAutoWidth
	}
	return w
}

// planUnits groups the points of one shard [lo, hi) into execution units:
// singleton units for direct points, gangs of at most width points for
// the rest, grouped by gangKey in first-seen order. width 0 picks a width
// per gang automatically; width 1 forces every point direct.
func planUnits(points []Point, lo, hi, width int) [][]int {
	var units [][]int
	var order []string
	buckets := make(map[string][]int)
	for i := lo; i < hi; i++ {
		if width == 1 || !gangable(points[i]) {
			units = append(units, []int{i})
			continue
		}
		k := gangKey(points[i])
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], i)
	}
	for _, k := range order {
		idxs := buckets[k]
		w := width
		if w <= 0 {
			w = autoWidth(points, idxs)
		}
		for len(idxs) > 0 {
			n := w
			if n > len(idxs) {
				n = len(idxs)
			}
			units = append(units, idxs[:n])
			idxs = idxs[n:]
		}
	}
	return units
}

// unitCounters reports how a shard's units actually executed.
type unitCounters struct {
	fusedGangs   int64 // gangs that ran as one fused pass
	fusedPoints  int64 // points simulated inside those passes
	directPoints int64 // points simulated one pass each
	fallbacks    int64 // gangs the fused kernel refused (ran per point)
}

// passesAvoided is the headline amortization: trace passes a per-point
// sweep would have made that fusion did not.
func (c unitCounters) passesAvoided() int64 { return c.fusedPoints - c.fusedGangs }

// runUnit simulates one planned unit. Panics anywhere inside — predictor
// construction, the kernel, a fault-injection hook — are recovered into a
// *PointError naming the unit's points. On error, key names the failing
// point (or the unit's first point for a panic).
func runUnit(ctx context.Context, w *workload.Workload, points []Point, idxs []int, budget int64, c *unitCounters) (rs []Result, key string, err error) {
	defer func() {
		if v := recover(); v != nil {
			pe := &PointError{Value: v, Stack: string(debug.Stack())}
			for _, i := range idxs {
				pe.Keys = append(pe.Keys, points[i].Key())
			}
			rs, key, err = nil, pe.Keys[0], pe
		}
	}()

	runDirect := func() ([]Result, string, error) {
		out := make([]Result, 0, len(idxs))
		for _, i := range idxs {
			p := points[i]
			if TestPointHook != nil {
				TestPointHook(p.Key())
			}
			r, err := runPoint(ctx, w, p, budget)
			if err != nil {
				return nil, p.Key(), err
			}
			c.directPoints++
			out = append(out, r)
		}
		return out, "", nil
	}

	if len(idxs) == 1 {
		return runDirect()
	}

	gang := make([]sim.GangPoint, len(idxs))
	bits := make([]int, len(idxs))
	for gi, i := range idxs {
		p := points[i]
		if TestPointHook != nil {
			TestPointHook(p.Key())
		}
		cfg, err := p.SimConfig()
		if err != nil {
			return nil, p.Key(), err
		}
		if bits[gi], err = p.StorageBits(); err != nil {
			return nil, p.Key(), err
		}
		gang[gi] = sim.GangPoint{Config: cfg, HistShare: histShareKey(p)}
	}
	res, ok := sim.RunAccuracyGangCtx(ctx, w.Replay(budget), budget, gang)
	if !ok {
		c.fallbacks++
		return runDirect()
	}
	out := make([]Result, len(idxs))
	for gi, i := range idxs {
		p := points[i]
		if res[gi].Err != nil {
			return nil, p.Key(), res[gi].Err
		}
		out[gi] = Result{
			Point:        p,
			StorageBits:  bits[gi],
			Instructions: res[gi].Instructions,
			Branches:     res[gi].Branches,
			Indirect:     res[gi].Indirect.Predictions,
			IndirectMiss: res[gi].Indirect.Mispredicts,
			Overall:      res[gi].Overall.Predictions,
			OverallMiss:  res[gi].Overall.Mispredicts,
			TCCovered:    res[gi].TCCovered,
		}
	}
	c.fusedGangs++
	c.fusedPoints += int64(len(idxs))
	return out, "", nil
}

// GangPlan describes the planned grouping of one workload's points, for
// -expand: how many passes the sweep will make and how big each gang is.
type GangPlan struct {
	Workload string
	// Gangs[w] counts gangs of width w (passes updating w points each).
	Gangs map[int]int
	// Points/Passes summarize: Points simulations in Passes trace passes.
	Points, Passes int
	// MaxStateBytes is the largest single gang's summed predictor state —
	// the planner's memory-footprint prediction.
	MaxStateBytes int64
}

// PlanGangs simulates the engine's unit planning over a full expansion
// (shard by shard, exactly as Run schedules it) and summarizes per
// workload, preserving workload first-appearance order.
func PlanGangs(points []Point, shardSize, width int) []GangPlan {
	if shardSize <= 0 {
		shardSize = defaultShardSize
	}
	byWorkload := make(map[string]*GangPlan)
	var order []string
	n := len(points)
	for lo := 0; lo < n; lo += shardSize {
		hi := lo + shardSize
		if hi > n {
			hi = n
		}
		for _, unit := range planUnits(points, lo, hi, width) {
			wl := points[unit[0]].Workload
			plan, ok := byWorkload[wl]
			if !ok {
				plan = &GangPlan{Workload: wl, Gangs: make(map[int]int)}
				byWorkload[wl] = plan
				order = append(order, wl)
			}
			plan.Gangs[len(unit)]++
			plan.Points += len(unit)
			plan.Passes++
			var state int64
			for _, i := range unit {
				state += points[i].StateBytes()
			}
			if state > plan.MaxStateBytes {
				plan.MaxStateBytes = state
			}
		}
	}
	out := make([]GangPlan, 0, len(order))
	for _, wl := range order {
		out = append(out, *byWorkload[wl])
	}
	return out
}
