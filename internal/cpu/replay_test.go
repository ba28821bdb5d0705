package cpu

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The differential tests pin the fused timing gang (RunReplayGang, and
// RunReplayCtx as its width-1 case) against the streaming reference loop
// (RunCtx over a Cursor): every member's Result struct-identical, and its
// telemetry and timeline identical, at every gang width.

// gangEngines mixes BTB-only and target-cache members, pattern and path
// histories, and every target-cache family.
func gangEngines() []sim.Config {
	pathCfg := func(per bool, f history.PathFilter, bits, perTarget int) func() history.Provider {
		return func() history.Provider {
			return history.NewPath(history.PathConfig{
				Bits: bits, BitsPerTarget: perTarget, AddrBitOffset: 2, PerAddress: per, Filter: f,
			})
		}
	}
	pattern := func() history.Provider { return history.NewPatternProvider(9) }
	tagless := func() core.TargetCache {
		return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
	}
	tagged := func(ways int, scheme core.TaggedScheme) func() core.TargetCache {
		return func() core.TargetCache {
			return core.NewTagged(core.TaggedConfig{Entries: 256, Ways: ways, Scheme: scheme, HistBits: 9})
		}
	}
	base := sim.DefaultConfig()
	return []sim.Config{
		base,
		base.WithTargetCache(tagless, pattern),
		base.WithTargetCache(tagless, pathCfg(true, 0, 9, 1)),
		base.WithTargetCache(tagged(4, core.SchemeHistoryXor), pattern),
		base.WithTargetCache(tagged(1, core.SchemeAddress), pathCfg(false, history.FilterIndJmp, 9, 1)),
		base,
		base.WithTargetCache(func() core.TargetCache { return core.NewCascaded(core.DefaultCascadedConfig()) }, pattern),
		base.WithTargetCache(func() core.TargetCache { return core.NewITTAGE(core.DefaultITTAGEConfig()) },
			pathCfg(false, history.FilterControl, 64, 4)),
		base.WithTargetCache(func() core.TargetCache { return core.DefaultChooser() }, pattern),
	}
}

// gangMachines returns the machine shapes the differential covers: the
// paper's machine, a non-power-of-two window (the modulo slot path), a 4 KB
// data cache (the eviction path) and the sensitivity experiment's five.
func gangMachines() map[string]Config {
	shape := func(f func(*Config)) Config {
		c := DefaultConfig()
		f(&c)
		return c
	}
	return map[string]Config{
		"default":         DefaultConfig(),
		"non-pow2-window": shape(func(c *Config) { c.Window = 48 }),
		"4k-dcache":       shape(func(c *Config) { c.DCacheBytes = 4096 }),
		"2w-32-d3":        shape(func(c *Config) { c.Width, c.Window, c.FrontEndDepth = 2, 32, 3 }),
		"4w-64-d4":        shape(func(c *Config) { c.Width, c.Window, c.FrontEndDepth = 4, 64, 4 }),
		"8w-128-d5":       shape(func(c *Config) {}),
		"16w-256-d8":      shape(func(c *Config) { c.Width, c.Window, c.FrontEndDepth = 16, 256, 8 }),
		"16w-256-d14":     shape(func(c *Config) { c.Width, c.Window, c.FrontEndDepth = 16, 256, 14 }),
	}
}

// runGangs runs the members in consecutive gangs of the given width and
// returns their results in member order.
func runGangs(ctx context.Context, bs trace.BlockSource, budget int64, ms []*Machine, width int) []Result {
	var out []Result
	for lo := 0; lo < len(ms); lo += width {
		out = append(out, RunReplayGang(ctx, bs, budget, ms[lo:min(lo+width, len(ms))])...)
	}
	return out
}

func machines(mc Config, engines []sim.Config) []*Machine {
	ms := make([]*Machine, len(engines))
	for i, ec := range engines {
		ms[i] = New(mc, sim.NewEngine(ec))
	}
	return ms
}

func captureOf(t testing.TB, name string, n int64) *trace.Replay {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Capture(trace.NewLimit(w.Open(), n))
}

// TestRunReplayMatchesCursor is the gang differential: at widths 1, 3
// and all members, across every machine shape, each member's Result is
// struct-identical to the streaming reference.
func TestRunReplayMatchesCursor(t *testing.T) {
	const budget = 60_000
	rep := captureOf(t, "go", budget)
	engines := gangEngines()
	ctx := context.Background()
	for mn, mc := range gangMachines() {
		want := make([]Result, len(engines))
		for i, ec := range engines {
			want[i] = New(mc, sim.NewEngine(ec)).RunCtx(ctx, rep.Open(), budget)
		}
		for _, width := range []int{1, 3, len(engines)} {
			got := runGangs(ctx, rep, budget, machines(mc, engines), width)
			for i := range engines {
				if got[i] != want[i] {
					t.Errorf("%s width %d member %d: gang diverges\n  gang   %+v\n  cursor %+v", mn, width, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRunReplayErrorContract pins the gang over a damaged capture: same
// partial counters as the streaming loop and the same ErrCorrupt, surfaced
// only when the budget reaches past the cleanly decoded prefix.
func TestRunReplayErrorContract(t *testing.T) {
	rep := captureOf(t, "gcc", 20_000)
	buf := rep.Bytes()
	damaged := trace.NewReplayBytes(buf[:len(buf)*3/4], rep.Len())
	engines := gangEngines()
	ctx := context.Background()
	for _, budget := range []int64{1_000, rep.Len()} {
		for _, width := range []int{1, 3, len(engines)} {
			got := runGangs(ctx, damaged, budget, machines(DefaultConfig(), engines), width)
			for i, ec := range engines {
				want := New(DefaultConfig(), sim.NewEngine(ec)).RunCtx(ctx, damaged.Open(), budget)
				g := got[i]
				gotErr, wantErr := g.Err, want.Err
				g.Err, want.Err = nil, nil
				if g != want {
					t.Errorf("budget %d width %d member %d: counters diverge\n  gang   %+v\n  cursor %+v", budget, width, i, g, want)
				}
				switch {
				case gotErr == nil && wantErr == nil:
				case gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error():
					t.Errorf("budget %d width %d member %d: error mismatch: gang %v, cursor %v", budget, width, i, gotErr, wantErr)
				}
			}
		}
	}
}

// countdownCtx reports cancellation from its n-th Err call on, so a run
// stops at a deterministic poll position.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestGangCancellation pins where a cancelled gang stops: at the same poll
// position, with the same partial counters, as the streaming loop.
func TestGangCancellation(t *testing.T) {
	const budget = 60_000
	rep := captureOf(t, "perl", budget)
	engines := gangEngines()
	for _, polls := range []int{1, 3} {
		for _, width := range []int{1, len(engines)} {
			ms := machines(DefaultConfig(), engines)
			var got []Result
			for lo := 0; lo < len(ms); lo += width {
				ctx := &countdownCtx{context.Background(), polls}
				got = append(got, RunReplayGang(ctx, rep, budget, ms[lo:min(lo+width, len(ms))])...)
			}
			for i, ec := range engines {
				want := New(DefaultConfig(), sim.NewEngine(ec)).RunCtx(&countdownCtx{context.Background(), polls}, rep.Open(), budget)
				if got[i] != want {
					t.Errorf("polls %d width %d member %d: cancelled gang diverges\n  gang   %+v\n  cursor %+v", polls, width, i, got[i], want)
				}
				if want.Err != context.Canceled || want.Instructions != int64(polls)*(ctxCheckMask+1)-1 {
					t.Fatalf("reference did not stop at poll %d: %+v", polls, want)
				}
			}
		}
	}
}

// TestGangTelemetryAndTimeline pins the observed gang: every member's
// telemetry collector (site statistics, events with their resolve Cycle,
// final clock) and timeline entries equal a solo streaming run's with the
// same collector and observer.
func TestGangTelemetryAndTimeline(t *testing.T) {
	const budget = 30_000
	rep := captureOf(t, "perl", budget)
	engines := gangEngines()
	type observed struct {
		col     *telemetry.Collector
		entries []TimelineEntry
	}
	build := func() ([]*Machine, []*observed) {
		ms := make([]*Machine, len(engines))
		obs := make([]*observed, len(engines))
		for i, ec := range engines {
			o := &observed{col: telemetry.NewCollector(telemetry.Config{Events: 64})}
			ec.Telemetry = o.col
			ms[i] = New(DefaultConfig(), sim.NewEngine(ec))
			ms[i].observer = func(e TimelineEntry) { o.entries = append(o.entries, e) }
			obs[i] = o
		}
		return ms, obs
	}
	ctx := context.Background()
	ref, refObs := build()
	for i, m := range ref {
		m.RunCtx(ctx, rep.Open(), budget)
		if events, _ := refObs[i].col.Events(); i == 1 && len(events) == 0 {
			t.Fatal("reference run logged no events: the test would compare nothing")
		}
	}
	for _, width := range []int{1, 3, len(engines)} {
		ms, obs := build()
		runGangs(ctx, rep, budget, ms, width)
		for i := range engines {
			if !reflect.DeepEqual(obs[i].col, refObs[i].col) {
				ge, _ := obs[i].col.Events()
				we, _ := refObs[i].col.Events()
				t.Errorf("width %d member %d: telemetry diverges\n  gang   %v\n  cursor %v", width, i, ge, we)
			}
			if !reflect.DeepEqual(obs[i].entries, refObs[i].entries) {
				t.Errorf("width %d member %d: timeline diverges (%d vs %d entries)", width, i, len(obs[i].entries), len(refObs[i].entries))
			}
		}
	}
}

// TestGangRejectsMismatchedMachines pins the gang's precondition: members
// must share the machine and the front end.
func TestGangRejectsMismatchedMachines(t *testing.T) {
	wide := DefaultConfig()
	wide.Width = 16
	smallRAS := sim.DefaultConfig()
	smallRAS.RASDepth = 4
	for name, other := range map[string]*Machine{
		"machine":   New(wide, sim.NewEngine(sim.DefaultConfig())),
		"front end": New(DefaultConfig(), sim.NewEngine(smallRAS)),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch: gang did not panic", name)
				}
			}()
			RunReplayGang(context.Background(), &trace.Blocks{}, 0,
				[]*Machine{New(DefaultConfig(), sim.NewEngine(sim.DefaultConfig())), other})
		}()
	}
}

// BenchmarkReplayGang reports the fused timing model's cost per member per
// instruction on a 1M-instruction gcc capture over Table 5's 35 configs
// (tagless gshare, nine path-history bits, seven address-bit offsets ×
// five path schemes), at gang widths 1, 4 and 16, plus the BTB-only
// machine at width 1.
func BenchmarkReplayGang(b *testing.B) {
	const budget = 1_000_000
	rep := captureOf(b, "gcc", budget)
	rep.Blocks() // decode once, outside the timed loop
	var table5 []sim.Config
	for _, offset := range []int{2, 3, 4, 5, 6, 8, 12} {
		for _, f := range []struct {
			per bool
			f   history.PathFilter
		}{{true, 0}, {false, history.FilterBranch}, {false, history.FilterControl}, {false, history.FilterIndJmp}, {false, history.FilterCallRet}} {
			pc := history.PathConfig{Bits: 9, BitsPerTarget: 1, AddrBitOffset: offset, PerAddress: f.per, Filter: f.f}
			table5 = append(table5, sim.DefaultConfig().WithTargetCache(
				func() core.TargetCache {
					return core.NewTagless(core.TaglessConfig{Entries: 512, Scheme: core.SchemeGshare})
				},
				func() history.Provider { return history.NewPath(pc) }))
		}
	}
	run := func(b *testing.B, engines []sim.Config, width int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range runGangs(context.Background(), rep, budget, machines(DefaultConfig(), engines), width) {
				if r.Err != nil || r.Instructions != budget {
					b.Fatalf("run stopped early: %+v", r)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(len(engines))*budget), "ns/member-instr")
	}
	for _, width := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("table5/w%d", width), func(b *testing.B) { run(b, table5, width) })
	}
	b.Run("btb/w1", func(b *testing.B) { run(b, []sim.Config{sim.DefaultConfig()}, 1) })
}
