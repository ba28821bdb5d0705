package sim

import (
	"context"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/trace"
)

// Batched accuracy kernel: when the trace factory is a decoded replay
// (the memoized captures every experiment cell runs over), the accuracy
// drivers switch from the streaming Cursor loop to this kernel. It differs
// from the generic loop in two ways, neither observable in the results:
//
//   - Decode-once iteration. Records come from trace.Blocks — the capture
//     varint-decoded a single time process-wide — and non-branch records
//     are skipped with a one-byte class check, never materializing a
//     Record.
//   - Inlining and instantiation. The per-branch Predict/Resolve sequence
//     is inlined here (no Engine calls, one BTB probe per branch) and the
//     kernel is instantiated per (target cache, history) type pair. That
//     instantiation does not devirtualize the predictor calls: Go
//     stencils generics per GC shape, and every pointer type argument
//     (*core.Tagless, *core.Tagged, *history.Path, ...) shares the
//     go.shape.*uint8 shape, so those Predict/Update/Value/Observe calls
//     still dispatch through the generics dictionary — profile frames read
//     accuracyKernel[go.shape.*uint8,...]. Only the BTB-only no-ops and
//     the struct-typed history.PatternProvider are stenciled as direct,
//     inlinable calls.
//
// The inlined sequence must mirror Engine.Predict/Engine.Resolve exactly;
// TestKernelMatchesGenericLoop and the bench golden report pin the
// equivalence, and internal/sim's overhead test cross-checks the counters
// against an independently maintained copy of the generic loop.

// targetCache is the compile-time constraint for the kernel's target-cache
// parameter: the hot subset of core.TargetCache.
type targetCache interface {
	Predict(pc, hist uint64) (target uint64, ok bool)
	Update(pc, hist, target uint64)
}

// historySource is the hot subset of history.Provider.
type historySource interface {
	Value(pc uint64) uint64
	Observe(r *trace.Record)
}

// noTC and noHist instantiate the kernel for the BTB-only baseline
// (Config.NewTargetCache == nil). Their no-op methods inline to nothing,
// reproducing the nil-interface guards in Engine.Predict/Resolve.
type noTC struct{}

func (noTC) Predict(pc, hist uint64) (uint64, bool) { return 0, false }
func (noTC) Update(pc, hist, target uint64)         {}

type noHist struct{}

func (noHist) Value(pc uint64) uint64  { return 0 }
func (noHist) Observe(r *trace.Record) {}

// blocksFor unwraps the decoded-batch representation behind a factory: a
// memoized Replay (decoded once, cached), an explicit Blocks, or any
// other BlockSource such as the out-of-core trace.Store.
func blocksFor(factory trace.Factory) (trace.BlockSource, bool) {
	switch f := factory.(type) {
	case *trace.Replay:
		return f, true
	case trace.BlockSource:
		return f, true
	}
	return nil, false
}

// runAccuracyBlocks dispatches the batched kernel over the concrete
// (target cache, history) pair the engine was built with. Unlisted pairs
// (the followup predictors: cascaded, ITTAGE, chooser) fall back to an
// interface-typed instantiation of the same kernel — still decode-once,
// with the predictor calls dispatched through the interfaces.
func runAccuracyBlocks(ctx context.Context, bs trace.BlockSource, budget, flushInterval int64, cfg Config) AccuracyResult {
	engine := NewEngine(cfg)
	return runAccuracyEngine(ctx, bs, 0, budget, flushInterval, engine)
}

// runAccuracyEngine dispatches an already-constructed engine over records
// [start, budget); the segmented driver uses start to resume a primed
// engine at its seam, the plain path passes start = 0.
func runAccuracyEngine(ctx context.Context, bs trace.BlockSource, start, budget, flushInterval int64, engine *Engine) AccuracyResult {
	switch tc := engine.TC.(type) {
	case nil:
		return accuracyKernel(ctx, bs, start, budget, flushInterval, engine, noTC{}, noHist{})
	case *core.Tagless:
		return dispatchHist(ctx, bs, start, budget, flushInterval, engine, tc)
	case *core.Tagged:
		return dispatchHist(ctx, bs, start, budget, flushInterval, engine, tc)
	case *core.Cascaded:
		return dispatchHist(ctx, bs, start, budget, flushInterval, engine, tc)
	case *core.ITTAGE:
		return dispatchHist(ctx, bs, start, budget, flushInterval, engine, tc)
	case *core.Chooser:
		return dispatchHist(ctx, bs, start, budget, flushInterval, engine, tc)
	}
	return accuracyKernel[core.TargetCache, history.Provider](ctx, bs, start, budget, flushInterval, engine, engine.TC, engine.Hist)
}

// dispatchHist instantiates the kernel over the engine's concrete history
// type for an already-resolved target cache.
func dispatchHist[TC targetCache](ctx context.Context, bs trace.BlockSource, start, budget, flushInterval int64, engine *Engine, tc TC) AccuracyResult {
	switch h := engine.Hist.(type) {
	case history.PatternProvider:
		return accuracyKernel(ctx, bs, start, budget, flushInterval, engine, tc, h)
	case *history.Path:
		return accuracyKernel(ctx, bs, start, budget, flushInterval, engine, tc, h)
	}
	return accuracyKernel[TC, history.Provider](ctx, bs, start, budget, flushInterval, engine, tc, engine.Hist)
}

// accuracyKernel is the batched, inlined accuracy loop over records
// [start, budget). tc and hist are the engine's own target cache and
// history, passed at their concrete types; engine is retained for Reset
// (flush intervals) and telemetry. Instruction indices (context polls,
// flush points, telemetry clocks) are absolute trace positions, so a
// segment kernel behaves exactly like the same span of a streaming run;
// res.Instructions counts only the records processed in the span.
func accuracyKernel[TC targetCache, H historySource](
	ctx context.Context, bs trace.BlockSource, start, budget, flushInterval int64,
	engine *Engine, tc TC, hist H,
) AccuracyResult {
	var res AccuracyResult
	btbT, ras, dir, tel := engine.BTB, engine.RAS, engine.Dir, engine.Tel

	limit := budget
	if limit < 0 {
		limit = 0
	}
	if start < 0 {
		start = 0
	}
	// The block layout invariant (block i covers records [i*BlockLen,
	// i*BlockLen+len)) lets the kernel seek straight to the seam block.
	effEnd := limit
	if clean := bs.CleanLen(); clean < effEnd {
		effEnd = clean
	}
	if start > effEnd {
		start = effEnd
	}
	insns := start
	var r trace.Record
	for bi := int(start / trace.BlockLen); insns < effEnd; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			res.Instructions = insns - start
			res.Err = err
			return res
		}
		base := int64(bi) * trace.BlockLen
		meta := blk.Meta
		m := len(meta)
		if rem := effEnd - base; int64(m) > rem {
			m = int(rem)
		}
		lo := 0
		if base < insns {
			lo = int(insns - base)
		}
		// Reslice the columns to the iteration length once so i < m
		// proves every access in range (no per-access bounds checks).
		meta = meta[:m]
		pcs := blk.PC[:m]
		tgts := blk.Target[:m]
		addrs := blk.Addr[:m]
		for i := lo; i < m; i++ {
			insns = base + int64(i) + 1
			if insns&ctxCheckMask == 0 {
				if err := ctx.Err(); err != nil {
					res.Instructions = insns - start
					res.Err = err
					return res
				}
			}
			if flushInterval > 0 && insns%flushInterval == 0 {
				engine.Reset()
			}
			mb := meta[i]
			cls := trace.Class(mb & trace.MetaClassMask)
			if cls == trace.ClassOther {
				continue
			}
			res.Branches++
			// Lean materialization: only the fields the predictors read
			// (the register operands stay zero; no consumer below looks
			// at them).
			r.PC = pcs[i]
			r.Target = tgts[i]
			r.Addr = addrs[i]
			r.Class = cls
			r.Op = trace.OpClass(mb >> trace.MetaOpShift & trace.MetaOpMask)
			r.Taken = mb&trace.MetaTaken != 0

			// ---- Engine.Predict, inlined at concrete types ----
			// The history value is computed lazily: only indirect jumps
			// consume it, and hist is not mutated until Observe below, so
			// deferring the read cannot change its value.
			var pTaken, pHasTarget, pFromTC, phOK bool
			var pTarget, ph uint64
			entry, bref, hit := btbT.Probe(r.PC)
			if hit {
				if entry.Class == trace.ClassCondDirect {
					pTaken = dir.Predict(r.PC)
				} else {
					pTaken = true
				}
				if pTaken {
					switch entry.Class {
					case trace.ClassReturn:
						if addr, ok := ras.Peek(); ok {
							pTarget, pHasTarget = addr, true
						}
					case trace.ClassIndJump, trace.ClassIndCall:
						ph = hist.Value(r.PC)
						phOK = true
						if tgt, ok := tc.Predict(r.PC, ph); ok {
							pTarget, pHasTarget, pFromTC = tgt, true, true
						} else {
							pTarget, pHasTarget = entry.Target, true
						}
					default:
						pTarget, pHasTarget = entry.Target, true
					}
				}
			}
			correct := pTaken == r.Taken && (!r.Taken || (pHasTarget && pTarget == r.Target))

			switch cls {
			case trace.ClassCondDirect:
				res.Conditional.Record(correct)
			case trace.ClassUncondDirect, trace.ClassCall:
				res.Direct.Record(correct)
			case trace.ClassReturn:
				res.Returns.Record(correct)
			case trace.ClassIndJump, trace.ClassIndCall:
				res.Indirect.Record(correct)
				if pFromTC {
					res.TCCovered++
				}
			}
			res.Overall.Record(correct)

			// ---- Engine.Resolve, inlined at concrete types ----
			if (cls == trace.ClassIndJump || cls == trace.ClassIndCall) && !phOK {
				ph = hist.Value(r.PC)
			}
			if tel != nil && (cls == trace.ClassIndJump || cls == trace.ClassIndCall) {
				tel.SetClock(insns)
				tel.Indirect(r.PC, ph, pTarget, pTaken && pHasTarget, r.Target, correct)
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
			if cls == trace.ClassIndJump || cls == trace.ClassIndCall {
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
	res.Instructions = insns - start
	// The streaming loop surfaces a decode error only when the budget
	// reaches past the cleanly decoded prefix (a Limit that stops earlier
	// never touches the damage). Mirror that exactly.
	if limit > bs.CleanLen() {
		res.Err = bs.TailErr()
	}
	return res
}
