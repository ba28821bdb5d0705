package sim

import (
	"context"

	"repro/internal/stats"
	"repro/internal/trace"
)

// ctxCheckMask sets how often the accuracy drivers poll ctx.Err: every
// 16384 instructions, cheap enough to be invisible in profiles while
// keeping cancellation latency well under a millisecond.
const ctxCheckMask = 1<<14 - 1

// AccuracyResult reports prediction accuracy over one trace, split by
// branch class. Indirect is the paper's headline population: indirect
// jumps and indirect calls, excluding returns.
type AccuracyResult struct {
	Instructions int64
	Branches     int64

	Conditional stats.Counter // direction+target of conditional branches
	Direct      stats.Counter // unconditional direct jumps and calls
	Returns     stats.Counter
	Indirect    stats.Counter // target-cache population
	Overall     stats.Counter
	// TCCovered counts indirect jumps for which the target cache supplied
	// the prediction (vs falling back to the BTB), a coverage diagnostic
	// for tagged caches.
	TCCovered int64

	// Err is non-nil when the run stopped early: a corrupt trace source
	// (wrapping trace.ErrCorrupt) or a cancelled context. The counters
	// above cover the instructions processed before the stop.
	Err error
}

// IndirectMispredictRate returns the indirect-jump misprediction rate, the
// paper's primary accuracy metric.
func (r AccuracyResult) IndirectMispredictRate() float64 {
	return r.Indirect.MispredictRate()
}

// RunAccuracy drives up to budget instructions from factory through a fresh
// engine built from cfg, counting per-class mispredictions.
func RunAccuracy(factory trace.Factory, budget int64, cfg Config) AccuracyResult {
	return RunAccuracyCtx(context.Background(), factory, budget, cfg)
}

// RunAccuracyCtx is RunAccuracy under a context: the loop polls ctx on
// instruction-count boundaries and stops early with Err set to ctx.Err()
// when cancelled, returning the partial counts accumulated so far. It is
// RunAccuracyWithFlushesCtx with flushes off, so memoized replays run as
// a width-1 fused gang (see gang.go) and any other factory on the
// streaming reference loop; the two give identical results.
func RunAccuracyCtx(ctx context.Context, factory trace.Factory, budget int64, cfg Config) AccuracyResult {
	return RunAccuracyWithFlushesCtx(ctx, factory, budget, 0, cfg)
}

// SegmentStats and SegmentCounters survive only for the perfbench
// harness, which records them per iteration. Replay is never split into
// segments, so every counter reads zero.
type SegmentStats struct {
	SegmentedRuns, SegmentsExecuted, WarmupInstructions int64
}

// SegmentCounters returns zero counters; see SegmentStats.
func SegmentCounters() SegmentStats { return SegmentStats{} }
