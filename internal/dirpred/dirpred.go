// Package dirpred implements the two-level adaptive conditional-branch
// direction predictor (Yeh & Patt; gshare variant after McFarling) that the
// simulated fetch engine uses for conditional branches. Its global history
// register is the same pattern history the target cache indexes with, so
// the target cache "can use the branch predictor's branch history register".
package dirpred

import (
	"fmt"

	"repro/internal/history"
)

// Scheme selects how the pattern history table is indexed.
type Scheme uint8

const (
	// SchemeGshare XORs the branch address with the global history.
	SchemeGshare Scheme = iota
	// SchemeGAg indexes with global history alone.
	SchemeGAg
	// SchemePAg keeps a history register per static branch (the paper's
	// BTB stores "3 branch history bits" per entry for exactly this) and
	// indexes a shared pattern table with it.
	SchemePAg
)

// perAddrSlots is the per-address history table size for SchemePAg.
const perAddrSlots = 1024

// Config describes a two-level direction predictor.
type Config struct {
	// HistoryBits is the global history register length and the log2 of
	// the pattern history table size.
	HistoryBits int
	Scheme      Scheme
}

// DefaultConfig returns a 12-bit gshare predictor, accurate enough that
// conditional branches are not the bottleneck in the timing experiments
// (the paper's focus is indirect jumps).
func DefaultConfig() Config {
	return Config{HistoryBits: 12, Scheme: SchemeGshare}
}

// Predictor is a two-level direction predictor with 2-bit saturating
// counters in its pattern history table.
type Predictor struct {
	cfg     Config
	hist    *history.Pattern
	table   []uint8 // 2-bit counters, initialised weakly taken
	mask    uint64
	perAddr []uint64 // per-branch history registers (SchemePAg)
}

// New returns a predictor for cfg.
func New(cfg Config) *Predictor {
	if cfg.HistoryBits < 1 || cfg.HistoryBits > 30 {
		panic(fmt.Sprintf("dirpred: invalid history length %d", cfg.HistoryBits))
	}
	size := 1 << cfg.HistoryBits
	p := &Predictor{
		cfg:   cfg,
		hist:  history.NewPattern(cfg.HistoryBits),
		table: make([]uint8, size),
		mask:  uint64(size - 1),
	}
	for i := range p.table {
		p.table[i] = 2 // weakly taken
	}
	if cfg.Scheme == SchemePAg {
		p.perAddr = make([]uint64, perAddrSlots)
	}
	return p
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

func (p *Predictor) index(pc uint64) uint64 {
	switch p.cfg.Scheme {
	case SchemeGAg:
		return p.hist.Value() & p.mask
	case SchemePAg:
		return p.perAddr[(pc>>2)%perAddrSlots] & p.mask
	default:
		return (p.hist.Value() ^ (pc >> 2)) & p.mask
	}
}

// Predict returns the predicted direction for the conditional branch at pc.
func (p *Predictor) Predict(pc uint64) bool {
	return p.table[p.index(pc)] >= 2
}

// Update trains the predictor with the resolved direction and shifts the
// outcome into the global history register.
func (p *Predictor) Update(pc uint64, taken bool) {
	idx := p.index(pc)
	ctr := p.table[idx]
	if taken {
		if ctr < 3 {
			ctr++
		}
	} else if ctr > 0 {
		ctr--
	}
	p.table[idx] = ctr
	if p.perAddr != nil {
		slot := (pc >> 2) % perAddrSlots
		h := p.perAddr[slot] << 1
		if taken {
			h |= 1
		}
		p.perAddr[slot] = h & p.mask
	}
	p.hist.Update(taken)
}

// History exposes the global history register (shared with the target
// cache, as in the paper).
func (p *Predictor) History() *history.Pattern { return p.hist }

// Reset clears tables and history.
func (p *Predictor) Reset() {
	for i := range p.table {
		p.table[i] = 2
	}
	for i := range p.perAddr {
		p.perAddr[i] = 0
	}
	p.hist.Reset()
}
