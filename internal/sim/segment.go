package sim

// Segment-parallel accuracy replay: one capture's block stream is split
// into K segments simulated concurrently inside a single cell. Every
// predictor structure (BTB, RAS, direction predictor, history register,
// target cache) is a deterministic function of the branch stream consumed
// so far, so a worker that first *primes* its engine over the full prefix
// [0, seam) — performing exactly the state mutations the real kernel
// would, but accumulating no results — and then simulates [seam, next)
// produces byte-identical per-record outcomes to the streaming run.
// Results join in segment order; TestSegmentedMatchesStreaming pins the
// equivalence across segment counts, seam positions and predictor
// configurations.
//
// Priming costs strictly less than simulating (no counters, no direction
// lookup, no result bookkeeping), but every worker still walks the whole
// prefix: total work grows with K even as the critical path shrinks. The
// seams are therefore placed geometrically (early segments long, late
// segments short) so each worker's prime+simulate cost is equal; see
// planSegments. The timing model is not segmented: its pipeline rings and
// data cache are consumed by the very instructions that build them, so a
// "prime" would have to run the full scheduling model anyway, saving
// nothing.

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/trace"
)

// primeCostRatio is the measured cost of priming one record relative to
// simulating it (the mutation-only walk skips result bookkeeping but
// still probes every structure). Only seam placement depends on it;
// correctness does not.
const primeCostRatio = 0.75

// minSegmentSpan is the smallest worthwhile segment: below two blocks the
// goroutine and priming overhead dwarfs the simulated span.
const minSegmentSpan = 2 * trace.BlockLen

// Package-wide segment counters for run-level telemetry.
var (
	segmentedRuns      atomic.Int64
	segmentsExecuted   atomic.Int64
	warmupInstructions atomic.Int64
)

// SegmentStats is a snapshot of the process-wide segmented-replay
// counters: runs that took the segmented path, segments executed, and
// total warm-up (priming) instructions replayed before seams.
type SegmentStats struct {
	SegmentedRuns      int64
	SegmentsExecuted   int64
	WarmupInstructions int64
}

// SegmentCounters returns process-wide segmented-replay activity.
func SegmentCounters() SegmentStats {
	return SegmentStats{
		SegmentedRuns:      segmentedRuns.Load(),
		SegmentsExecuted:   segmentsExecuted.Load(),
		WarmupInstructions: warmupInstructions.Load(),
	}
}

// RunAccuracySegmented is RunAccuracy with the capture split into up to
// `segments` concurrently simulated segments.
func RunAccuracySegmented(factory trace.Factory, budget int64, segments int, cfg Config) AccuracyResult {
	return RunAccuracySegmentedCtx(context.Background(), factory, budget, segments, cfg)
}

// RunAccuracySegmentedCtx runs the accuracy model over factory's first
// budget instructions using up to `segments` concurrent workers, joining
// their results in order. The merged result is byte-identical to
// RunAccuracyCtx over the same inputs. Runs that cannot be segmented
// without observable differences fall back to the plain path untouched:
// telemetry collection (events carry stream-order clocks), periodic
// flushes (Reset is a global stream position effect), non-batched
// factories, and captures too small to split.
func RunAccuracySegmentedCtx(ctx context.Context, factory trace.Factory, budget int64, segments int, cfg Config) AccuracyResult {
	bs, ok := blocksFor(factory)
	if !ok || segments <= 1 || cfg.Telemetry != nil {
		return RunAccuracyCtx(ctx, factory, budget, cfg)
	}
	limit := budget
	if limit < 0 {
		limit = 0
	}
	effN := limit
	if clean := bs.CleanLen(); clean < effN {
		effN = clean
	}
	seams := planSegments(effN, segments)
	if len(seams) < 3 {
		return RunAccuracyCtx(ctx, factory, budget, cfg)
	}

	segmentedRuns.Add(1)
	nseg := len(seams) - 1
	segmentsExecuted.Add(int64(nseg))
	results := make([]AccuracyResult, nseg)
	var wg sync.WaitGroup
	for k := 0; k < nseg; k++ {
		start, end := seams[k], seams[k+1]
		if k == nseg-1 {
			// The last segment carries the caller's full budget so the
			// kernel's tail check (budget reaching past the clean prefix)
			// fires exactly as it does on the streaming path.
			end = limit
		}
		warmupInstructions.Add(start)
		wg.Add(1)
		go func(k int, start, end int64) {
			defer wg.Done()
			results[k] = runSegment(ctx, bs, start, end, cfg)
		}(k, start, end)
	}
	wg.Wait()
	return mergeSegments(results)
}

// planSegments places K-1 seams over [0, effN) so that every worker's
// prime-plus-simulate cost is equal. Worker k primes [0, s_k) at
// primeCostRatio per record and simulates [s_k, s_k+1) at unit cost;
// balancing gives the geometric recurrence s_k+1 = β·s_k + C with
// β = 1-primeCostRatio and C = effN·(1-β)/(1-β^K). Seams are rounded
// down to block boundaries (the kernel seeks by whole blocks) and
// degenerate segments are dropped. The returned boundaries start at 0 and
// end at effN; fewer than three boundaries means segmentation is not
// worth it for this capture.
func planSegments(effN int64, segments int) []int64 {
	if maxSeg := int(effN / minSegmentSpan); segments > maxSeg {
		segments = maxSeg
	}
	if segments < 2 {
		return nil
	}
	const beta = 1 - primeCostRatio
	// C = effN·(1-β)/(1-β^K)
	betaK := 1.0
	for i := 0; i < segments; i++ {
		betaK *= beta
	}
	c := float64(effN) * (1 - beta) / (1 - betaK)
	seams := make([]int64, 0, segments+1)
	seams = append(seams, 0)
	s := 0.0
	for k := 1; k < segments; k++ {
		s = beta*s + c
		seam := (int64(s) / trace.BlockLen) * trace.BlockLen
		if prev := seams[len(seams)-1]; seam < prev+minSegmentSpan {
			continue
		}
		if seam > effN-minSegmentSpan {
			break
		}
		seams = append(seams, seam)
	}
	return append(seams, effN)
}

// mergeSegments joins per-segment results in order, stopping at the
// first segment that ended early (cancellation or a corrupt tail): its
// partial counts are included, later segments are discarded, mirroring
// how far a streaming run would have progressed.
func mergeSegments(results []AccuracyResult) AccuracyResult {
	var merged AccuracyResult
	for _, res := range results {
		merged.Instructions += res.Instructions
		merged.Branches += res.Branches
		merged.TCCovered += res.TCCovered
		merged.Conditional.Add(res.Conditional)
		merged.Direct.Add(res.Direct)
		merged.Returns.Add(res.Returns)
		merged.Indirect.Add(res.Indirect)
		merged.Overall.Add(res.Overall)
		if res.Err != nil {
			merged.Err = res.Err
			break
		}
	}
	return merged
}

// runSegment builds a fresh engine, primes it over [0, start) and
// simulates [start, end), dispatching over the engine's concrete types
// exactly like runAccuracyEngine so prime and simulate run the same
// kernel instantiation.
func runSegment(ctx context.Context, bs trace.BlockSource, start, end int64, cfg Config) AccuracyResult {
	engine := NewEngine(cfg)
	switch tc := engine.TC.(type) {
	case nil:
		return segmentKernel(ctx, bs, start, end, engine, noTC{}, noHist{}, false)
	case *core.Tagless:
		return segDispatchHist(ctx, bs, start, end, engine, tc, false)
	case *core.Tagged:
		return segDispatchHist(ctx, bs, start, end, engine, tc, true)
	case *core.Cascaded:
		return segDispatchHist(ctx, bs, start, end, engine, tc, true)
	case *core.ITTAGE:
		return segDispatchHist(ctx, bs, start, end, engine, tc, false)
	case *core.Chooser:
		return segDispatchHist(ctx, bs, start, end, engine, tc, true)
	}
	// Unknown target-cache implementations are primed conservatively, as
	// if their Predict mutated internal state.
	return segmentKernel[core.TargetCache, history.Provider](ctx, bs, start, end, engine, engine.TC, engine.Hist, true)
}

func segDispatchHist[TC targetCache](ctx context.Context, bs trace.BlockSource, start, end int64, engine *Engine, tc TC, tcMutates bool) AccuracyResult {
	switch h := engine.Hist.(type) {
	case history.PatternProvider:
		return segmentKernel(ctx, bs, start, end, engine, tc, h, tcMutates)
	case *history.Path:
		return segmentKernel(ctx, bs, start, end, engine, tc, h, tcMutates)
	}
	return segmentKernel[TC, history.Provider](ctx, bs, start, end, engine, tc, engine.Hist, tcMutates)
}

func segmentKernel[TC targetCache, H historySource](
	ctx context.Context, bs trace.BlockSource, start, end int64,
	engine *Engine, tc TC, hist H, tcMutates bool,
) AccuracyResult {
	if start > 0 {
		if err := primeKernel(ctx, bs, start, engine, tc, hist, tcMutates); err != nil {
			return AccuracyResult{Err: err}
		}
	}
	return accuracyKernel(ctx, bs, start, end, 0, engine, tc, hist)
}

// primeKernel replays records [0, end) through the engine's predictor
// structures performing every state mutation the accuracy kernel would —
// and nothing else. Per branch the full kernel mutates:
//
//   - the BTB, on every probe (replacement tick) and on update;
//   - the target cache, on Predict for implementations whose lookup
//     ticks internal replacement state (tagged/cascaded/chooser;
//     tcMutates selects this) and on Update for indirect jumps;
//   - the RAS on calls and returns, the direction predictor on
//     conditionals, and the history register on every branch.
//
// The full kernel reaches tc.Predict exactly when the BTB hit and the
// hit entry's class is indirect: for those classes the predicted-taken
// flag is unconditionally true, so the direction predictor (whose
// Predict is pure) cannot gate it. Everything else the kernel computes —
// direction lookups, RAS peeks, correctness checks, counters — reads
// state without writing it and is skipped here.
func primeKernel[TC targetCache, H historySource](
	ctx context.Context, bs trace.BlockSource, end int64,
	engine *Engine, tc TC, hist H, tcMutates bool,
) error {
	btbT, ras, dir := engine.BTB, engine.RAS, engine.Dir
	if clean := bs.CleanLen(); clean < end {
		end = clean
	}
	var insns int64
	var r trace.Record
	for bi := 0; insns < end; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			return err
		}
		base := int64(bi) * trace.BlockLen
		meta := blk.Meta
		m := len(meta)
		if rem := end - base; int64(m) > rem {
			m = int(rem)
		}
		meta = meta[:m]
		pcs := blk.PC[:m]
		tgts := blk.Target[:m]
		addrs := blk.Addr[:m]
		for i := 0; i < m; i++ {
			insns = base + int64(i) + 1
			if insns&ctxCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			mb := meta[i]
			cls := trace.Class(mb & trace.MetaClassMask)
			if cls == trace.ClassOther {
				continue
			}
			r.PC = pcs[i]
			r.Target = tgts[i]
			r.Addr = addrs[i]
			r.Class = cls
			r.Op = trace.OpClass(mb >> trace.MetaOpShift & trace.MetaOpMask)
			r.Taken = mb&trace.MetaTaken != 0

			entry, bref, hit := btbT.Probe(r.PC)
			indirect := cls == trace.ClassIndJump || cls == trace.ClassIndCall
			var ph uint64
			if indirect {
				ph = hist.Value(r.PC)
			}
			if tcMutates && hit && (entry.Class == trace.ClassIndJump || entry.Class == trace.ClassIndCall) {
				tc.Predict(r.PC, hist.Value(r.PC))
			}
			if cls == trace.ClassCall || cls == trace.ClassIndCall {
				ras.Push(r.FallThrough())
			}
			if cls == trace.ClassReturn {
				ras.Pop()
			}
			if cls == trace.ClassCondDirect {
				dir.Update(r.PC, r.Taken)
			}
			if indirect {
				tc.Update(r.PC, ph, r.Target)
			}
			hist.Observe(&r)
			if hit {
				btbT.UpdateHit(bref, &r)
			} else {
				btbT.Update(&r)
			}
		}
	}
	return nil
}
