package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// maxFuzzRecords bounds a decoded fuzz trace at three blocks, so budgets
// can end inside any block, the last one included.
const maxFuzzRecords = 3 * trace.BlockLen

// fuzzTrace decodes fuzz bytes into a record stream and a budget. The
// first two bytes scale the budget over the stream's length (a little
// past it, too); every following byte is one opcode (high three bits)
// with an argument (low five bits). Branch sites come from one pool of 16
// PCs shared by every class, so BTB entries go stale and misclassify
// sites, and returns pop a shadow call stack so the RAS is right until
// call depth outgrows it.
func fuzzTrace(data []byte) ([]trace.Record, int64) {
	if len(data) < 2 {
		return nil, 0
	}
	frac := int64(data[0])<<8 | int64(data[1])
	var recs []trace.Record
	var stack []uint64
	site := func(arg byte) uint64 { return 0x1000 + uint64(arg&15)*4 }
	emit := func(r trace.Record) {
		if len(recs) < maxFuzzRecords {
			recs = append(recs, r)
		}
	}
	branch := func(pc, target uint64, cls trace.Class, taken bool) {
		if !taken {
			target = 0
		}
		emit(trace.Record{PC: pc, Target: target, Class: cls, Op: trace.OpBranch, Taken: taken})
		if taken && (cls == trace.ClassCall || cls == trace.ClassIndCall) {
			stack = append(stack, pc+4)
		}
	}
	ret := func(pc uint64) {
		target := uint64(0x9000)
		if n := len(stack); n > 0 {
			target, stack = stack[n-1], stack[:n-1]
		}
		branch(pc, target, trace.ClassReturn, true)
	}
	for _, b := range data[2:] {
		if len(recs) >= maxFuzzRecords {
			break
		}
		op, arg := b>>5, b&31
		switch op {
		case 0: // a run of non-branches
			for i := 0; i <= int(arg); i++ {
				emit(trace.Record{PC: 0x4000 + uint64(i)*4, Op: trace.OpInt})
			}
		case 1: // conditional branch, taken when bit 4 is set
			branch(site(arg), site(arg)+0x100, trace.ClassCondDirect, arg&16 != 0)
		case 2: // unconditional direct jump (bit 4 clear) or call
			cls := trace.ClassUncondDirect
			if arg&16 != 0 {
				cls = trace.ClassCall
			}
			branch(site(arg), site(arg)+0x200, cls, true)
		case 3: // indirect jump to one of two targets per site
			branch(site(arg), 0x8000+uint64(arg)*64, trace.ClassIndJump, true)
		case 4: // indirect call
			branch(site(arg), 0x8800+uint64(arg>>3)*64, trace.ClassIndCall, true)
		case 5: // return
			ret(site(arg))
		case 6: // all-indirect run over the site pool, rotating targets
			for i := 0; i < (int(arg)+1)*8; i++ {
				branch(site(byte(i)), 0x8000+uint64((i*7+int(arg))%13)*64, trace.ClassIndJump, true)
			}
		case 7:
			if arg&1 == 0 {
				// One site with hundreds of distinct targets.
				for i := 0; i < (int(arg)+2)*16; i++ {
					branch(site(arg>>1), 0x10000+uint64(i)*4, trace.ClassIndJump, true)
				}
			} else {
				// A call chain deeper than the RAS, then its unwinding.
				depth := (int(arg>>1) + 1) * 4
				for i := 0; i < depth; i++ {
					branch(site(byte(i)), 0x20000+uint64(i)*64, trace.ClassCall, true)
				}
				for i := 0; i < depth; i++ {
					ret(site(byte(i + 3)))
				}
			}
		}
	}
	return recs, int64(len(recs)+16) * frac / 0xffff
}

// fuzzGang is a mixed-lane gang over small RASes: two BTB geometries
// small enough to thrash, each under both update strategies, as BTB-only
// members at RAS depth 8, plus a tagless member on the first lane and a
// tagged member on the last, then the first geometry again at RAS depth
// 2 as a lane of its own, carrying a BTB-only and a tagless member. The
// first tagless member, one BTB-only member and the depth-2 tagless
// member carry collectors.
func fuzzGang() []GangPoint {
	var pts []GangPoint
	for _, geom := range []btb.Config{{Sets: 4, Ways: 2}, {Sets: 16, Ways: 1}} {
		for _, s := range []btb.Strategy{btb.StrategyDefault, btb.StrategyTwoBit} {
			geom.Strategy = s
			cfg := withBTB(geom)
			cfg.RASDepth = 8
			pts = append(pts, GangPoint{Config: cfg})
		}
	}
	withTagless := func(cfg Config) Config {
		return cfg.WithTargetCache(
			func() core.TargetCache {
				return core.NewTagless(core.TaglessConfig{Entries: 16, Scheme: core.SchemeGshare})
			},
			func() history.Provider { return history.NewPatternProvider(4) })
	}
	tagged := pts[3].Config.WithTargetCache(
		func() core.TargetCache {
			return core.NewTagged(core.TaggedConfig{Entries: 16, Ways: 2, HistBits: 6})
		},
		func() history.Provider {
			return history.NewPath(history.PathConfig{Bits: 6, BitsPerTarget: 2, AddrBitOffset: 2, Filter: history.FilterIndJmp})
		})
	shallow := pts[0].Config
	shallow.RASDepth = 2
	pts = append(pts, GangPoint{Config: withTagless(pts[0].Config)}, GangPoint{Config: tagged},
		GangPoint{Config: shallow}, GangPoint{Config: withTagless(shallow)})
	for _, i := range []int{1, 4, 7} {
		pts[i].Config.Telemetry = telemetry.NewCollector(telemetry.Config{Events: 4})
	}
	return pts
}

// fuzzFlush decodes a fuzz byte into the gang's flush interval: 0 never
// flushes, and the square spreads the rest from every record to past the
// longest fuzz trace.
func fuzzFlush(b byte) int64 { return int64(b) * int64(b) }

// FuzzGangMatchesSolo checks the gang equivalence contract on arbitrary
// record streams and flush intervals: every member of a mixed-lane gang
// reports exactly what the streaming loop reports for it alone,
// collectors included.
func FuzzGangMatchesSolo(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0x61, 0x62, 0x63, 0xdf, 0xc5}, byte(0))       // indirect jumps, an all-indirect run
	f.Add([]byte{0x80, 0x00, 0xfe, 0xe4, 0x00, 0x7f}, byte(9))             // hot sites with hundreds of targets
	f.Add([]byte{0xc0, 0x00, 0xff, 0x22, 0x33, 0x85, 0xa5, 0xfb}, byte(0)) // deep call chains
	f.Add([]byte{0x55, 0x55, 0x1f, 0x31, 0x52, 0x65, 0x92, 0x41, 0xa3, 0x1f, 0xc9, 0x3f, 0xe6}, byte(3))
	f.Add([]byte{0xfa, 0x30, 0xe4, 0xff, 0x85, 0xa5, 0x85, 0xa5}, byte(0)) // stale indirect entries on call and return sites
	f.Fuzz(func(t *testing.T, data []byte, flushByte byte) {
		recs, budget := fuzzTrace(data)
		flush := fuzzFlush(flushByte)
		rep := trace.Capture(trace.NewSliceSource(recs))
		pts := fuzzGang()
		got, ok := RunAccuracyGangCtx(context.Background(), rep, budget, flush, pts)
		if !ok {
			t.Fatal("gang refused to fuse")
		}
		solo := fuzzGang()
		for i, pt := range solo {
			if want := RunAccuracyWithFlushes(opaqueFactory{rep}, budget, flush, pt.Config); got[i] != want {
				t.Errorf("member %d (BTB %+v, RAS %d) diverges from solo at budget %d of %d, flush %d\n  gang %+v\n  solo %+v",
					i, pt.Config.BTB, pt.Config.RASDepth, budget, len(recs), flush, got[i], want)
			}
			if !reflect.DeepEqual(pts[i].Config.Telemetry, pt.Config.Telemetry) {
				t.Errorf("member %d: collector differs from the solo run's", i)
			}
		}
	})
}
