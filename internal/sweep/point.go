package sweep

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/sim"
)

// Point is one fully-resolved grid point: a predictor configuration bound
// to a workload. Points are plain data — JSON-serializable for manifests
// and sweep/v1 documents — and turn into a runnable sim.Config on demand.
type Point struct {
	Workload string `json:"workload"`
	Family   string `json:"family"`
	Scheme   string `json:"scheme,omitempty"`
	History  string `json:"history,omitempty"`
	Entries  int    `json:"entries,omitempty"`
	Ways     int    `json:"ways,omitempty"`
	HistBits int    `json:"hist_bits,omitempty"`
	TagBits  int    `json:"tag_bits,omitempty"`
	// Stage1 is the cascaded first-stage entry count, or the ittage base
	// table entry count.
	Stage1 int `json:"stage1_entries,omitempty"`
	// Tables is the ittage tagged-table count.
	Tables int `json:"tables,omitempty"`
	// PathBitsPerTarget is how many bits of each recorded target a path
	// history register shifts in; 0 means 1.
	PathBitsPerTarget int `json:"path_bits_per_target,omitempty"`
	// PathAddrBit is the target-address bit where path extraction
	// starts; 0 means 2, the lowest useful bit of a word-aligned target.
	PathAddrBit int `json:"path_addr_bit,omitempty"`
	// RASDepth is the front end's return-address-stack depth; 0 means
	// the paper's 32.
	RASDepth int `json:"ras_depth,omitempty"`
}

// Defaults the zero values of the optional fields stand for.
const (
	defaultPathBitsPerTarget = 1
	defaultPathAddrBit       = 2
	defaultRASDepth          = 32
	maxRASDepth              = 1 << 12
)

// orDefault resolves an optional field: zero means def.
func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

// pathBitsPerTarget and pathAddrBit are the effective path-register
// parameters.
func (p Point) pathBitsPerTarget() int {
	return orDefault(p.PathBitsPerTarget, defaultPathBitsPerTarget)
}
func (p Point) pathAddrBit() int { return orDefault(p.PathAddrBit, defaultPathAddrBit) }

// ittageLens returns the geometric history lengths for n tagged tables:
// the n-length tail of {2, 4, 8, 16, 32, 64}, so the longest history is
// always 64 bits and shorter cascades drop the short end first.
func ittageLens(n int) []int {
	all := []int{2, 4, 8, 16, 32, 64}
	return all[len(all)-n:]
}

// ConfigLabel is the point's canonical configuration name (without the
// workload), e.g. "tagless-gshare-e512-h9-pattern". The optional fields
// add a suffix only when they differ from their default, so a point that
// leaves them unset keeps the label it had before they existed.
func (p Point) ConfigLabel() string {
	label := p.familyLabel()
	if v := p.pathBitsPerTarget(); v != defaultPathBitsPerTarget {
		label += fmt.Sprintf("-bpt%d", v)
	}
	if v := p.pathAddrBit(); v != defaultPathAddrBit {
		label += fmt.Sprintf("-abit%d", v)
	}
	if v := orDefault(p.RASDepth, defaultRASDepth); v != defaultRASDepth {
		label += fmt.Sprintf("-ras%d", v)
	}
	return label
}

func (p Point) familyLabel() string {
	switch p.Family {
	case "btb":
		return fmt.Sprintf("btb-%s-e%d-w%d", p.Scheme, p.Entries, p.Ways)
	case "tagless":
		return fmt.Sprintf("tagless-%s-e%d-h%d-%s", p.Scheme, p.Entries, p.HistBits, p.History)
	case "tagged":
		return fmt.Sprintf("tagged-%s-e%d-w%d-h%d-t%d-%s", p.Scheme, p.Entries, p.Ways, p.HistBits, p.TagBits, p.History)
	case "cascaded":
		return fmt.Sprintf("cascaded-%s-s%d-e%d-w%d-h%d-t%d-%s", p.Scheme, p.Stage1, p.Entries, p.Ways, p.HistBits, p.TagBits, p.History)
	case "ittage":
		return fmt.Sprintf("ittage-b%d-e%d-n%d-t%d-h%d-%s", p.Stage1, p.Entries, p.Tables, p.TagBits, p.HistBits, p.History)
	case "hybrid":
		return fmt.Sprintf("hybrid-h%d-%s", p.HistBits, p.History)
	default:
		return "unknown"
	}
}

// Key is the point's canonical identity: workload plus configuration.
func (p Point) Key() string { return p.Workload + "/" + p.ConfigLabel() }

func pow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Validate checks that the point is a runnable configuration. Expansion
// calls it on every cross-product combination and skips (while counting)
// the invalid ones, so range axes may legally sweep past a family's
// constraints at some grid corners.
func (p Point) Validate() error {
	if err := p.validateOptional(); err != nil {
		return err
	}
	switch p.Family {
	case "btb":
		if !pow2(p.Entries) || !pow2(p.Ways) || p.Ways > p.Entries {
			return fmt.Errorf("sweep: btb geometry %d entries / %d ways must be powers of two with ways <= entries", p.Entries, p.Ways)
		}
	case "tagless":
		cfg, err := p.taglessConfig()
		if err != nil {
			return err
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		return p.validateHistory()
	case "tagged":
		if err := p.taggedConfig().Validate(); err != nil {
			return err
		}
		return p.validateHistory()
	case "cascaded":
		if err := p.cascadedConfig().Validate(); err != nil {
			return err
		}
		return p.validateHistory()
	case "ittage":
		if err := p.ittageConfig().Validate(); err != nil {
			return err
		}
		return p.validateHistory()
	case "hybrid":
		return p.validateHistory()
	default:
		return fmt.Errorf("sweep: unknown family %q", p.Family)
	}
	return nil
}

// validateOptional range-checks the optional path and RAS fields; the
// path fields need a path history register to act on.
func (p Point) validateOptional() error {
	if p.RASDepth < 0 || p.RASDepth > maxRASDepth {
		return fmt.Errorf("sweep: RAS depth %d out of range [1, %d]", p.RASDepth, maxRASDepth)
	}
	if p.PathBitsPerTarget == 0 && p.PathAddrBit == 0 {
		return nil
	}
	if !strings.HasPrefix(p.History, "path-") {
		return fmt.Errorf("sweep: path bits per target / address bit need a path history, not %q", p.History)
	}
	if p.PathBitsPerTarget < 0 || p.PathBitsPerTarget > p.HistBits {
		return fmt.Errorf("sweep: path bits per target %d out of range [1, %d]", p.PathBitsPerTarget, p.HistBits)
	}
	if p.PathAddrBit < 0 || p.PathAddrBit > 62 {
		return fmt.Errorf("sweep: path address bit %d out of range [1, 62]", p.PathAddrBit)
	}
	return nil
}

func (p Point) validateHistory() error {
	if p.HistBits < 1 || p.HistBits > 64 {
		return fmt.Errorf("sweep: history depth %d out of range [1, 64]", p.HistBits)
	}
	if !historyKinds[p.History] {
		return fmt.Errorf("sweep: unknown history kind %q", p.History)
	}
	return nil
}

func (p Point) taglessConfig() (core.TaglessConfig, error) {
	cfg := core.TaglessConfig{Entries: p.Entries}
	switch p.Scheme {
	case "gag":
		cfg.Scheme = core.SchemeGAg
	case "gshare":
		cfg.Scheme = core.SchemeGshare
	case "gas":
		cfg.Scheme = core.SchemeGAs
		if !pow2(p.Entries) {
			return cfg, fmt.Errorf("sweep: tagless entries %d not a power of two", p.Entries)
		}
		idxBits := bits.TrailingZeros(uint(p.Entries))
		if p.HistBits > idxBits {
			return cfg, fmt.Errorf("sweep: GAs history %d exceeds index width %d", p.HistBits, idxBits)
		}
		cfg.HistBits = p.HistBits
		cfg.AddrBits = idxBits - p.HistBits
	default:
		return cfg, fmt.Errorf("sweep: unknown tagless scheme %q", p.Scheme)
	}
	return cfg, nil
}

func (p Point) taggedConfig() core.TaggedConfig {
	cfg := core.TaggedConfig{
		Entries: p.Entries, Ways: p.Ways, HistBits: p.HistBits, TagBits: p.TagBits,
	}
	switch p.Scheme {
	case "addr":
		cfg.Scheme = core.SchemeAddress
	case "concat":
		cfg.Scheme = core.SchemeHistoryConcat
	default:
		cfg.Scheme = core.SchemeHistoryXor
	}
	return cfg
}

func (p Point) cascadedConfig() core.CascadedConfig {
	return core.CascadedConfig{
		Stage1Entries: p.Stage1,
		Stage1Ways:    2,
		Stage2: core.TaggedConfig{
			Entries: p.Entries, Ways: p.Ways, Scheme: core.SchemeHistoryXor,
			HistBits: p.HistBits, TagBits: p.TagBits,
		},
		Filtered: p.Scheme != "unfiltered",
	}
}

func (p Point) ittageConfig() core.ITTAGEConfig {
	n := p.Tables
	if n < 1 {
		n = 1
	}
	if n > 6 {
		n = 6
	}
	return core.ITTAGEConfig{
		BaseEntries:  p.Stage1,
		TableEntries: p.Entries,
		HistLens:     ittageLens(n),
		TagBits:      p.TagBits,
	}
}

// historyProvider returns the constructor for the point's history kind.
func (p Point) historyProvider() func() history.Provider {
	hbits := p.HistBits
	if p.History == "pattern" {
		return func() history.Provider { return history.NewPatternProvider(hbits) }
	}
	cfg := history.PathConfig{Bits: hbits, BitsPerTarget: p.pathBitsPerTarget(), AddrBitOffset: p.pathAddrBit()}
	switch p.History {
	case "path-peraddr":
		cfg.PerAddress = true
	case "path-branch":
		cfg.Filter = history.FilterBranch
	case "path-control":
		cfg.Filter = history.FilterControl
	case "path-callret":
		cfg.Filter = history.FilterCallRet
	default: // path-indjmp
		cfg.Filter = history.FilterIndJmp
	}
	return func() history.Provider { return history.NewPath(cfg) }
}

// SimConfig builds the point's front-end configuration: the paper's
// baseline front end (with the point's RAS depth), with the BTB
// re-geometried for btb-family points or augmented with the point's
// target cache and history otherwise.
func (p Point) SimConfig() (sim.Config, error) {
	if err := p.Validate(); err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig()
	if p.RASDepth != 0 {
		cfg.RASDepth = p.RASDepth
	}
	switch p.Family {
	case "btb":
		cfg.BTB = btb.Config{Sets: p.Entries / p.Ways, Ways: p.Ways}
		if p.Scheme == "2bit" {
			cfg.BTB.Strategy = btb.StrategyTwoBit
		}
		return cfg, nil
	case "tagless":
		tl, err := p.taglessConfig()
		if err != nil {
			return sim.Config{}, err
		}
		return cfg.WithTargetCache(
			func() core.TargetCache { return core.NewTagless(tl) }, p.historyProvider()), nil
	case "tagged":
		tg := p.taggedConfig()
		return cfg.WithTargetCache(
			func() core.TargetCache { return core.NewTagged(tg) }, p.historyProvider()), nil
	case "cascaded":
		ca := p.cascadedConfig()
		return cfg.WithTargetCache(
			func() core.TargetCache { return core.NewCascaded(ca) }, p.historyProvider()), nil
	case "ittage":
		it := p.ittageConfig()
		return cfg.WithTargetCache(
			func() core.TargetCache { return core.NewITTAGE(it) }, p.historyProvider()), nil
	case "hybrid":
		return cfg.WithTargetCache(
			func() core.TargetCache { return core.DefaultChooser() }, p.historyProvider()), nil
	}
	return sim.Config{}, fmt.Errorf("sweep: unknown family %q", p.Family)
}

// GangPoint builds the point's sim.GangPoint: its SimConfig plus the key
// under which gang members share a history register.
func (p Point) GangPoint() (sim.GangPoint, error) {
	cfg, err := p.SimConfig()
	if err != nil {
		return sim.GangPoint{}, err
	}
	return sim.GangPoint{Config: cfg, HistShare: histShareKey(p)}, nil
}

// StorageBits prices the point's total target-prediction storage: the
// front end's BTB (the point's own geometry for btb-family points, the
// paper's baseline otherwise) plus the target-cache structure, each under
// its config's CostBits accounting. Pricing the BTB into every point puts
// "grow the BTB" and "add a target cache" on one comparable axis — the
// trade the paper's design-space study is about.
func (p Point) StorageBits() (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	switch p.Family {
	case "btb":
		cfg := btb.Config{Sets: p.Entries / p.Ways, Ways: p.Ways}
		if p.Scheme == "2bit" {
			cfg.Strategy = btb.StrategyTwoBit
		}
		return cfg.CostBits(), nil
	case "tagless":
		tl, err := p.taglessConfig()
		if err != nil {
			return 0, err
		}
		return btb.DefaultConfig().CostBits() + tl.CostBits(), nil
	case "tagged":
		return btb.DefaultConfig().CostBits() + p.taggedConfig().CostBits(), nil
	case "cascaded":
		return btb.DefaultConfig().CostBits() + p.cascadedConfig().CostBits(), nil
	case "ittage":
		return btb.DefaultConfig().CostBits() + p.ittageConfig().CostBits(), nil
	case "hybrid":
		return btb.DefaultConfig().CostBits() + core.DefaultChooser().CostBits(), nil
	}
	return 0, fmt.Errorf("sweep: unknown family %q", p.Family)
}

// Expansion is a spec expanded to its runnable points.
type Expansion struct {
	// Points are the runnable grid points in canonical order: workloads
	// in spec order, then grids in spec order, then the documented axis
	// nesting (scheme, history, entries, ways, hist_bits, tag_bits,
	// stage1_entries, tables).
	Points []Point
	// SkippedInvalid counts cross-product combinations dropped because a
	// family constraint rejected them (e.g. GAs history deeper than the
	// index, associativity above the entry count). Reported, never
	// silent.
	SkippedInvalid int
}

// familyDefaults fills a point's absent axes with its family's canonical
// values (the paper's geometries where one exists).
func gridAxes(g Grid) (schemes, hists []string, entries, ways, histBits, tagBits, stage1, tables []int) {
	schemes = g.Schemes
	hists = g.History
	if len(hists) == 0 {
		hists = []string{"pattern"}
	}
	switch g.Family {
	case "btb":
		if len(schemes) == 0 {
			schemes = []string{"default"}
		}
		hists = []string{""}
		entries = g.Entries.or(1024)
		ways = g.Ways.or(4)
		histBits, tagBits, stage1, tables = []int{0}, []int{0}, []int{0}, []int{0}
	case "tagless":
		if len(schemes) == 0 {
			schemes = []string{"gshare"}
		}
		entries = g.Entries.or(512)
		ways = []int{0}
		histBits = g.HistBits.or(9)
		tagBits, stage1, tables = []int{0}, []int{0}, []int{0}
	case "tagged":
		if len(schemes) == 0 {
			schemes = []string{"xor"}
		}
		entries = g.Entries.or(256)
		ways = g.Ways.or(4)
		histBits = g.HistBits.or(9)
		tagBits = g.TagBits.or(32)
		stage1, tables = []int{0}, []int{0}
	case "cascaded":
		if len(schemes) == 0 {
			schemes = []string{"filtered"}
		}
		entries = g.Entries.or(256)
		ways = g.Ways.or(4)
		histBits = g.HistBits.or(9)
		tagBits = g.TagBits.or(32)
		stage1 = g.Stage1Entries.or(128)
		tables = []int{0}
	case "ittage":
		schemes = []string{""}
		entries = g.Entries.or(128)
		ways = []int{0}
		histBits = g.HistBits.or(64)
		tagBits = g.TagBits.or(9)
		stage1 = g.Stage1Entries.or(256)
		tables = g.Tables.or(5)
	}
	return
}

// Expand resolves the spec's cross product into runnable points. The
// order is total and deterministic — the engine's shards, the resume
// manifest and the rendered reports all key off point position.
func (s *Spec) Expand() (*Expansion, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	// Bound the raw cross product before walking it: maxPoints only counts
	// valid points, and a degenerate spec could otherwise spin through an
	// astronomically large product of invalid combinations.
	var combos int64
	for _, g := range s.Grids {
		schemes, hists, entries, ways, histBits, tagBits, stage1, tables := gridAxes(g)
		product := int64(len(s.Workloads))
		for _, n := range []int{len(schemes), len(hists), len(entries), len(ways), len(histBits), len(tagBits), len(stage1), len(tables)} {
			product *= int64(n)
			if product > maxPoints {
				return nil, fmt.Errorf("sweep: grid %q crosses more than %d combinations", g.Family, maxPoints)
			}
		}
		combos += product
		if combos > maxPoints {
			return nil, fmt.Errorf("sweep: spec crosses more than %d combinations", maxPoints)
		}
	}
	ex := &Expansion{}
	for _, w := range s.Workloads {
		for _, g := range s.Grids {
			schemes, hists, entries, ways, histBits, tagBits, stage1, tables := gridAxes(g)
			for _, sc := range schemes {
				for _, h := range hists {
					for _, e := range entries {
						for _, wy := range ways {
							for _, hb := range histBits {
								for _, tb := range tagBits {
									for _, s1 := range stage1 {
										for _, tbl := range tables {
											p := Point{
												Workload: w, Family: g.Family, Scheme: sc, History: h,
												Entries: e, Ways: wy, HistBits: hb, TagBits: tb,
												Stage1: s1, Tables: tbl,
											}
											if err := p.Validate(); err != nil {
												ex.SkippedInvalid++
												continue
											}
											ex.Points = append(ex.Points, p)
											if len(ex.Points) > maxPoints {
												return nil, fmt.Errorf("sweep: spec expands past %d points", maxPoints)
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(ex.Points) == 0 {
		return nil, fmt.Errorf("sweep: spec expands to no runnable points (%d invalid combinations)", ex.SkippedInvalid)
	}
	return ex, nil
}
