package sim

import (
	"context"

	"repro/internal/trace"
)

// RunAccuracyWithFlushes is RunAccuracy with the entire front end reset
// every flushInterval instructions, modelling context switches that wipe
// predictor state. It measures how quickly each structure re-warms: the
// BTB needs one encounter per jump, a history-indexed target cache one
// encounter per (jump, history) pair, so frequent switches erode the
// target cache's advantage first — a classic objection the experiment
// quantifies.
func RunAccuracyWithFlushes(factory trace.Factory, budget, flushInterval int64, cfg Config) AccuracyResult {
	return RunAccuracyWithFlushesCtx(context.Background(), factory, budget, flushInterval, cfg)
}

// RunAccuracyWithFlushesCtx is RunAccuracyWithFlushes under a context; see
// RunAccuracyCtx for the cancellation contract. Memoized replays (and any
// other trace.BlockSource) run as a fused gang of width 1; every other
// factory runs the streaming loop below, the reference path the gang is
// pinned against. flushInterval <= 0 never flushes.
func RunAccuracyWithFlushesCtx(ctx context.Context, factory trace.Factory, budget, flushInterval int64, cfg Config) AccuracyResult {
	if res, ok := RunAccuracyGangCtx(ctx, factory, budget, flushInterval, []GangPoint{{Config: cfg}}); ok {
		return res[0]
	}
	engine := NewEngine(cfg)
	var res AccuracyResult
	src := trace.NewLimit(factory.Open(), budget)
	var r trace.Record
	for src.Next(&r) {
		res.Instructions++
		if res.Instructions&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				res.Err = err
				return res
			}
		}
		if flushInterval > 0 && res.Instructions%flushInterval == 0 {
			engine.Reset()
		}
		if !r.Class.IsBranch() {
			continue
		}
		res.Branches++
		p := engine.Predict(&r)
		correct := p.Correct(&r)
		switch r.Class {
		case trace.ClassCondDirect:
			res.Conditional.Record(correct)
		case trace.ClassUncondDirect, trace.ClassCall:
			res.Direct.Record(correct)
		case trace.ClassReturn:
			res.Returns.Record(correct)
		case trace.ClassIndJump, trace.ClassIndCall:
			res.Indirect.Record(correct)
			if p.FromTC {
				res.TCCovered++
			}
			// Accuracy runs have no cycle clock; telemetry events are
			// stamped with the instruction index instead. Nil-safe.
			engine.Tel.SetClock(res.Instructions)
		}
		res.Overall.Record(correct)
		engine.Resolve(&r, p)
	}
	res.Err = trace.SourceErr(src)
	return res
}
