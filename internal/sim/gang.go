package sim

import (
	"context"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Fused gang replay: one pass over a decoded block stream drives K
// predictor configurations in lockstep. The sweep engine's grids multiply
// hundreds of points over the same handful of captures, and before this
// kernel every point re-traversed its capture end to end; here the
// traversal — and everything in the front end that evolves identically
// for every member — happens once per gang instead of once per point.
//
// What makes fusion sound: the baseline front-end structures (BTB, return
// address stack, direction predictor) and the branch-history registers
// train purely on the resolved record stream, never on prediction
// outcomes, so two runs differing only in their target cache hold
// bit-identical front-end state at every instruction. A gang therefore
// shares
//
//   - one block iteration: record fields (pc/target/class byte) are read
//     once per block for the whole gang;
//   - one front end: every member must carry the same BTB geometry, RAS
//     depth and direction-predictor config (the sweep's target-cache
//     families all use the paper's baseline front end, so this holds by
//     construction); probe, direction prediction and training run once;
//   - per-scheme history registers: members naming the same HistShare key
//     provably construct identical providers, so the register is computed
//     and trained once and its Value is read by every member using that
//     scheme.
//
// Per member there remains only the target cache itself — flat tables
// allocated per member, with the member bookkeeping (history index,
// divergence counters) laid out contiguously in one slice — touched only
// on records whose prediction or update actually consults it: indirect
// jumps and calls, plus the rare record whose stale BTB entry
// misclassifies it as indirect. Everything else is accumulated once in
// shared counters and added into every member's result at the end, so the
// per-record marginal cost of a gang member is zero on the ~95% of
// branches that never touch a target cache.
//
// Equivalence contract: for every member, the returned AccuracyResult is
// struct-identical to sim.RunAccuracy over the same factory, budget and
// config. TestGangMatchesSolo and the sweep package's differential
// harness pin this at gang widths 1, 4 and K across worker counts.

// GangPoint is one member of a fused gang: a full simulation config plus
// an optional history-sharing key.
type GangPoint struct {
	Config Config
	// HistShare, when non-empty, identifies the member's history
	// configuration: members with equal keys are guaranteed by the caller
	// to construct identical history providers (same kind, same depth,
	// same path parameters) and share a single register. An empty key
	// gives the member a private provider, which is always safe.
	HistShare string
}

// gangMember is the per-member state of a fused run. The slice of these
// is the gang's only per-member allocation besides the target caches
// themselves; counters here record only the records whose outcome
// diverged per member (their prediction consulted the member's target
// cache) — the shared skeleton counters live once in the kernel.
type gangMember struct {
	hist int32 // index into the shared provider table

	cond, direct, returns, indirect, overall stats.Counter
	tcCovered                                int64
}

// RunAccuracyGang is RunAccuracyGangCtx under context.Background.
func RunAccuracyGang(factory trace.Factory, budget int64, pts []GangPoint) ([]AccuracyResult, bool) {
	return RunAccuracyGangCtx(context.Background(), factory, budget, pts)
}

// RunAccuracyGangCtx simulates every member of pts over a single pass of
// factory's decoded block stream and returns one AccuracyResult per
// member, in order, each struct-identical to what RunAccuracyCtx would
// report for that member alone. A member's telemetry collector, when
// set, receives exactly the calls a solo run would make.
//
// A member without a target cache (a BTB-only config) rides the gang's
// front end: its result is the shared skeleton plus one shared "BTB
// verdict" counter set, however many such members there are.
//
// The second return is false — and no simulation runs — when the gang
// cannot be fused: the factory exposes no decoded BlockSource, a member
// has a target cache but no history, or the members disagree on
// front-end configuration (BTB, RAS depth, direction predictor). Callers
// fall back to per-point runs.
func RunAccuracyGangCtx(ctx context.Context, factory trace.Factory, budget int64, pts []GangPoint) ([]AccuracyResult, bool) {
	if len(pts) == 0 {
		return nil, false
	}
	bs, ok := blocksFor(factory)
	if !ok {
		return nil, false
	}
	front := pts[0].Config
	for _, pt := range pts {
		cfg := pt.Config
		if cfg.NewTargetCache != nil && cfg.NewHistory == nil {
			return nil, false
		}
		if cfg.BTB != front.BTB || cfg.RASDepth != front.RASDepth || cfg.Dir != front.Dir {
			return nil, false
		}
	}

	// One shared front end, built from the common config with the
	// per-member structures stripped.
	front.NewTargetCache, front.NewHistory, front.Telemetry = nil, nil, nil
	engine := NewEngine(front)

	var (
		members   []gangMember
		tcs       []core.TargetCache
		providers []history.Provider
		obs       gangObs
		observed  bool
	)
	shared := make(map[string]int32, len(pts))
	for _, pt := range pts {
		tel := pt.Config.Telemetry
		observed = observed || tel != nil
		if pt.Config.NewTargetCache == nil {
			if obs.btb == nil {
				obs.btb = &btbVerdict{}
			}
			if tel != nil {
				obs.btb.tels = append(obs.btb.tels, tel)
			}
			continue
		}
		obs.tels = append(obs.tels, tel)
		tcs = append(tcs, pt.Config.NewTargetCache())
		var m gangMember
		if key := pt.HistShare; key != "" {
			if idx, ok := shared[key]; ok {
				m.hist = idx
				members = append(members, m)
				continue
			}
			shared[key] = int32(len(providers))
		}
		m.hist = int32(len(providers))
		members = append(members, m)
		providers = append(providers, pt.Config.NewHistory())
	}

	// Only gangs with a BTB-only member or a collector carry an
	// observer; the rest (every sweep gang) run the plain fused loop.
	var o *gangObs
	if obs.btb != nil || observed {
		for _, m := range members {
			obs.hists = append(obs.hists, m.hist)
		}
		o = &obs
	}
	tcRes, btbRes := dispatchGangTC(ctx, bs, budget, engine, members, tcs, providers, o)
	out := make([]AccuracyResult, len(pts))
	for i, pt := range pts {
		if pt.Config.NewTargetCache == nil {
			out[i] = btbRes
			continue
		}
		out[i], tcRes = tcRes[0], tcRes[1:]
	}
	return out, true
}

// dispatchGangTC instantiates the kernel over the members' concrete
// target-cache type when the gang is family-homogeneous. Grid expansion
// emits points family by family, so shards — and the gangs cut from them
// — mix families only at grid boundaries; the rare mixed gang takes the
// interface-typed instantiation of the same kernel. As in the solo
// kernel, pointer-typed caches share one GC shape, so the per-member
// Predict/Update calls still go through the generics dictionary.
func dispatchGangTC(
	ctx context.Context, bs trace.BlockSource, budget int64,
	engine *Engine, members []gangMember, tcs []core.TargetCache, providers []history.Provider, obs *gangObs,
) ([]AccuracyResult, AccuracyResult) {
	switch {
	case allOf[*core.Tagless](tcs):
		return dispatchGangHist(ctx, bs, budget, engine, members, cast[*core.Tagless](tcs), providers, obs)
	case allOf[*core.Tagged](tcs):
		return dispatchGangHist(ctx, bs, budget, engine, members, cast[*core.Tagged](tcs), providers, obs)
	case allOf[*core.Cascaded](tcs):
		return dispatchGangHist(ctx, bs, budget, engine, members, cast[*core.Cascaded](tcs), providers, obs)
	case allOf[*core.ITTAGE](tcs):
		return dispatchGangHist(ctx, bs, budget, engine, members, cast[*core.ITTAGE](tcs), providers, obs)
	}
	return dispatchGangHist(ctx, bs, budget, engine, members, tcs, providers, obs)
}

// dispatchGangHist monomorphizes over the providers' concrete type for an
// already-resolved target-cache type. The sweep groups gangs by history
// scheme, so gangs are history-homogeneous in practice; heterogeneous
// gangs take the interface-typed instantiation.
func dispatchGangHist[TC targetCache](
	ctx context.Context, bs trace.BlockSource, budget int64,
	engine *Engine, members []gangMember, tcs []TC, providers []history.Provider, obs *gangObs,
) ([]AccuracyResult, AccuracyResult) {
	if hs, ok := homogeneous[history.PatternProvider](providers); ok {
		return gangKernel(ctx, bs, budget, engine, members, tcs, hs, obs)
	}
	if hs, ok := homogeneous[*history.Path](providers); ok {
		return gangKernel(ctx, bs, budget, engine, members, tcs, hs, obs)
	}
	return gangKernel(ctx, bs, budget, engine, members, tcs, providers, obs)
}

// homogeneous converts the provider slice to its concrete element type
// when every element has it.
func homogeneous[H historySource](providers []history.Provider) ([]H, bool) {
	hs := make([]H, len(providers))
	for i, p := range providers {
		h, ok := p.(H)
		if !ok {
			return nil, false
		}
		hs[i] = h
	}
	return hs, true
}

// allOf reports whether every target cache has concrete type TC.
func allOf[TC targetCache](tcs []core.TargetCache) bool {
	for _, tc := range tcs {
		if _, ok := tc.(TC); !ok {
			return false
		}
	}
	return true
}

// cast converts the target-cache slice to its concrete element type;
// callers check allOf first.
func cast[TC targetCache](tcs []core.TargetCache) []TC {
	out := make([]TC, len(tcs))
	for i, tc := range tcs {
		out[i] = tc.(TC)
	}
	return out
}

// btbVerdict is the outcome every BTB-only member of a gang shares on the
// records where target-cache members diverge.
type btbVerdict struct {
	cond, direct, returns, indirect, overall stats.Counter
	// tels are the BTB-only members' collectors.
	tels []*telemetry.Collector
}

// gangObs receives the outcomes only some gangs need: the BTB-only
// members' shared verdict and the members' telemetry. Gangs with neither
// pass a nil observer and skip every call.
type gangObs struct {
	tels  []*telemetry.Collector // per target-cache member; nil entries unobserved
	hists []int32                // per target-cache member: its history register
	btb   *btbVerdict
}

// memberIndirect reports target-cache member mi's own verdict on an
// indirect-class record whose prediction consulted its cache.
func (o *gangObs) memberIndirect(mi int, insns int64, r *trace.Record, hist, pTarget uint64, correct bool) {
	if tel := o.tels[mi]; tel != nil {
		tel.SetClock(insns)
		tel.Indirect(r.PC, hist, pTarget, true, r.Target, correct)
	}
}

// diverged reports a record whose prediction consulted the target
// caches; a BTB-only member predicts the BTB entry's target there.
func (o *gangObs) diverged(insns int64, r *trace.Record, entryTarget uint64) {
	v := o.btb
	if v == nil {
		return
	}
	// The kernel reports only predicted-taken records here.
	correct := r.Taken && entryTarget == r.Target
	switch r.Class {
	case trace.ClassCondDirect:
		v.cond.Record(correct)
	case trace.ClassUncondDirect, trace.ClassCall:
		v.direct.Record(correct)
	case trace.ClassReturn:
		v.returns.Record(correct)
	case trace.ClassIndJump, trace.ClassIndCall:
		v.indirect.Record(correct)
		for _, tel := range v.tels {
			tel.SetClock(insns)
			tel.Indirect(r.PC, 0, entryTarget, true, r.Target, correct)
		}
	}
	v.overall.Record(correct)
}

// sharedIndirect reports an indirect-class record every member predicted
// alike; phVals are the history registers' values.
func (o *gangObs) sharedIndirect(insns int64, r *trace.Record, phVals []uint64, pTarget uint64, hasPrediction, correct bool) {
	for mi, tel := range o.tels {
		if tel != nil {
			tel.SetClock(insns)
			tel.Indirect(r.PC, phVals[o.hists[mi]], pTarget, hasPrediction, r.Target, correct)
		}
	}
	if o.btb != nil {
		// BTB-only members see no history.
		for _, tel := range o.btb.tels {
			tel.SetClock(insns)
			tel.Indirect(r.PC, 0, pTarget, hasPrediction, r.Target, correct)
		}
	}
}

// gangKernel is the fused accuracy loop. It mirrors accuracyKernel record
// for record — same context-poll positions, same lean materialization,
// same clean-prefix error contract — with the per-branch work split into
// a shared skeleton (run once) and a per-member tail (run only when a
// member's target cache is consulted). It returns the target-cache
// members' results in order plus the result every BTB-only member shares.
func gangKernel[TC targetCache, H historySource](
	ctx context.Context, bs trace.BlockSource, budget int64,
	engine *Engine, members []gangMember, tcs []TC, hists []H, obs *gangObs,
) ([]AccuracyResult, AccuracyResult) {
	var res AccuracyResult // shared skeleton counters
	// sharedInd counts indirect-class records whose prediction never
	// consulted a target cache (BTB miss, not-taken direction, or a stale
	// non-indirect BTB class): their outcome is identical for every
	// member.
	var sharedInd stats.Counter
	btbT, ras, dir := engine.BTB, engine.RAS, engine.Dir
	phVals := make([]uint64, len(hists))

	limit := budget
	if limit < 0 {
		limit = 0
	}
	effEnd := limit
	if clean := bs.CleanLen(); clean < effEnd {
		effEnd = clean
	}
	var insns int64
	var r trace.Record

	// finish assembles the per-member results: the shared skeleton plus
	// each member's divergence counters, every member reporting the same
	// instruction count and error a solo run stopped at this record would.
	finish := func(err error) ([]AccuracyResult, AccuracyResult) {
		assemble := func(cond, direct, returns, indirect, overall stats.Counter, tcCovered int64) AccuracyResult {
			mr := res
			mr.Instructions = insns
			mr.Conditional.Add(cond)
			mr.Direct.Add(direct)
			mr.Returns.Add(returns)
			mr.Indirect = sharedInd
			mr.Indirect.Add(indirect)
			mr.Overall.Add(overall)
			mr.TCCovered = tcCovered
			mr.Err = err
			return mr
		}
		out := make([]AccuracyResult, len(members))
		for mi := range members {
			m := &members[mi]
			out[mi] = assemble(m.cond, m.direct, m.returns, m.indirect, m.overall, m.tcCovered)
		}
		var btbRes AccuracyResult
		if obs != nil && obs.btb != nil {
			v := obs.btb
			btbRes = assemble(v.cond, v.direct, v.returns, v.indirect, v.overall, 0)
		}
		return out, btbRes
	}

	for bi := 0; insns < effEnd; bi++ {
		blk, err := bs.BlockAt(bi)
		if err != nil {
			return finish(err)
		}
		base := int64(bi) * trace.BlockLen
		meta := blk.Meta
		m := len(meta)
		if rem := effEnd - base; int64(m) > rem {
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
					return finish(err)
				}
			}
			mb := meta[i]
			cls := trace.Class(mb & trace.MetaClassMask)
			if cls == trace.ClassOther {
				continue
			}
			res.Branches++
			r.PC = pcs[i]
			r.Target = tgts[i]
			r.Addr = addrs[i]
			r.Class = cls
			r.Op = trace.OpClass(mb >> trace.MetaOpShift & trace.MetaOpMask)
			r.Taken = mb&trace.MetaTaken != 0

			// ---- shared fetch skeleton: BTB probe and direction ----
			entry, bref, hit := btbT.Probe(r.PC)
			var pTaken bool
			if hit {
				if entry.Class == trace.ClassCondDirect {
					pTaken = dir.Predict(r.PC)
				} else {
					pTaken = true
				}
			}
			indirectCls := cls == trace.ClassIndJump || cls == trace.ClassIndCall
			// perMember: the prediction consults the target cache, so the
			// outcome can differ per member. This keys on the BTB's
			// *detected* class, exactly like the solo kernels.
			perMember := hit && pTaken &&
				(entry.Class == trace.ClassIndJump || entry.Class == trace.ClassIndCall)

			if perMember || indirectCls {
				// Value is pure and providers are not trained until the
				// resolve phase below, so one read per scheme serves every
				// member — the same value a solo run would see.
				for pi := range hists {
					phVals[pi] = hists[pi].Value(r.PC)
				}
			}

			if perMember {
				for mi := range members {
					mem := &members[mi]
					pTarget, pFromTC := entry.Target, false
					if tgt, ok := tcs[mi].Predict(r.PC, phVals[mem.hist]); ok {
						pTarget, pFromTC = tgt, true
					}
					correct := pTaken == r.Taken && (!r.Taken || pTarget == r.Target)
					switch cls {
					case trace.ClassCondDirect:
						mem.cond.Record(correct)
					case trace.ClassUncondDirect, trace.ClassCall:
						mem.direct.Record(correct)
					case trace.ClassReturn:
						mem.returns.Record(correct)
					case trace.ClassIndJump, trace.ClassIndCall:
						mem.indirect.Record(correct)
						if pFromTC {
							mem.tcCovered++
						}
						if obs != nil {
							obs.memberIndirect(mi, insns, &r, phVals[mem.hist], pTarget, correct)
						}
					}
					mem.overall.Record(correct)
				}
				if obs != nil {
					obs.diverged(insns, &r, entry.Target)
				}
			} else {
				// No target cache consulted: the prediction — and its
				// correctness — is identical for every member. Count once.
				var pTarget uint64
				var pHasTarget bool
				if hit && pTaken {
					switch entry.Class {
					case trace.ClassReturn:
						if addr, ok := ras.Peek(); ok {
							pTarget, pHasTarget = addr, true
						}
					default:
						pTarget, pHasTarget = entry.Target, true
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
					sharedInd.Record(correct)
					if obs != nil {
						obs.sharedIndirect(insns, &r, phVals, pTarget, pTaken && pHasTarget, correct)
					}
				}
				res.Overall.Record(correct)
			}

			// ---- resolve: per-member target-cache training, then the
			// shared structures, in the solo kernels' exact order ----
			if indirectCls {
				for mi := range members {
					tcs[mi].Update(r.PC, phVals[members[mi].hist], r.Target)
				}
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
			for pi := range hists {
				hists[pi].Observe(&r)
			}
			if hit {
				btbT.UpdateHit(bref, &r)
			} else {
				btbT.Update(&r)
			}
		}
	}
	var tailErr error
	// Same clean-prefix contract as the solo kernels: damage past the
	// budget is never surfaced.
	if limit > bs.CleanLen() {
		tailErr = bs.TailErr()
	}
	return finish(tailErr)
}
