package sweep

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

// smokeIdentityDigest hashes Key(), ConfigLabel() and the JSON encoding
// of every point sweep_smoke.json expands to, as recorded before Point
// gained its optional path and RAS fields. Manifests, sweep/v1 documents
// and perfbench's sweep digests all key off these bytes.
const smokeIdentityDigest = "3ba169447d3a9076a9576e2fa74296992d057e4449eb2ff8e58288746d85feee"

// TestSmokePointsKeepTheirIdentity: adding optional fields must not move
// any existing point's key, label or JSON bytes.
func TestSmokePointsKeepTheirIdentity(t *testing.T) {
	data, err := os.ReadFile("../../sweep_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range ex.Points {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n%s\n%s\n", p.Key(), p.ConfigLabel(), b)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != smokeIdentityDigest {
		t.Errorf("smoke grid identity digest %s, want %s (%d points)", got, smokeIdentityDigest, len(ex.Points))
	}
}

func pathPoint() Point {
	return Point{Workload: "gcc", Family: "tagless", Scheme: "gshare", History: "path-indjmp", Entries: 512, HistBits: 9}
}

// TestOptionalFieldsLabelOnlyWhenNonDefault: a field left at its default
// (zero or the explicit default value) adds no suffix; any other value
// does, so distinct predictors get distinct keys.
func TestOptionalFieldsLabelOnlyWhenNonDefault(t *testing.T) {
	base := pathPoint()
	same := base
	same.PathBitsPerTarget, same.PathAddrBit, same.RASDepth = 1, 2, 32
	if same.Key() != base.Key() {
		t.Errorf("explicit defaults changed the key: %s vs %s", same.Key(), base.Key())
	}
	for _, mut := range []func(*Point){
		func(p *Point) { p.PathBitsPerTarget = 3 },
		func(p *Point) { p.PathAddrBit = 12 },
		func(p *Point) { p.RASDepth = 8 },
	} {
		p := base
		mut(&p)
		if p.Key() == base.Key() {
			t.Errorf("%+v shares the default point's key %s", p, p.Key())
		}
	}
}

func TestValidateRejectsOutOfRangeOptionalFields(t *testing.T) {
	for name, mut := range map[string]func(*Point){
		"negative bits per target":   func(p *Point) { p.PathBitsPerTarget = -1 },
		"bits per target > register": func(p *Point) { p.PathBitsPerTarget = 10 },
		"negative address bit":       func(p *Point) { p.PathAddrBit = -2 },
		"address bit past 62":        func(p *Point) { p.PathAddrBit = 63 },
		"negative RAS depth":         func(p *Point) { p.RASDepth = -1 },
		"huge RAS depth":             func(p *Point) { p.RASDepth = maxRASDepth + 1 },
		"path field on pattern":      func(p *Point) { p.History = "pattern"; p.PathAddrBit = 4 },
		"path field on btb": func(p *Point) {
			*p = Point{Family: "btb", Scheme: "default", Entries: 1024, Ways: 4, PathBitsPerTarget: 2}
		},
	} {
		p := pathPoint()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, p)
		}
	}
	ok := pathPoint()
	ok.PathBitsPerTarget, ok.PathAddrBit, ok.RASDepth = 3, 12, 8
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected an in-range point: %v", err)
	}
}

// TestHistShareKeyCoversPathFields: members whose path registers differ
// must never share one register.
func TestHistShareKeyCoversPathFields(t *testing.T) {
	base := pathPoint()
	bpt, abit := base, base
	bpt.PathBitsPerTarget = 3
	abit.PathAddrBit = 5
	keys := map[string]string{"base": histShareKey(base), "bpt": histShareKey(bpt), "abit": histShareKey(abit)}
	seen := map[string]string{}
	for name, k := range keys {
		if other, dup := seen[k]; dup {
			t.Errorf("%s and %s share history key %q", name, other, k)
		}
		seen[k] = name
	}
	explicit := base
	explicit.PathBitsPerTarget, explicit.PathAddrBit = 1, 2
	if histShareKey(explicit) != histShareKey(base) {
		t.Error("explicit defaults changed the history key")
	}
}

// TestHybridPointBuildsDefaultChooser: the hybrid family is the
// last-target + tagged chooser of the followups experiment.
func TestHybridPointBuildsDefaultChooser(t *testing.T) {
	p := Point{Workload: "perl", Family: "hybrid", History: "pattern", HistBits: 9}
	if got := p.ConfigLabel(); got != "hybrid-h9-pattern" {
		t.Errorf("label %q", got)
	}
	cfg, err := p.SimConfig()
	if err != nil {
		t.Fatal(err)
	}
	if tc := cfg.NewTargetCache(); !reflect.DeepEqual(tc, core.DefaultChooser()) {
		t.Errorf("hybrid builds %T, not core.DefaultChooser()", tc)
	}
	bits, err := p.StorageBits()
	if err != nil || bits <= core.DefaultChooser().CostBits() {
		t.Errorf("StorageBits = %d, %v; want the BTB plus the chooser", bits, err)
	}
	if err := (Point{Family: "hybrid", History: "pattern"}).Validate(); err == nil || !strings.Contains(err.Error(), "history depth") {
		t.Errorf("hybrid without a history depth validated: %v", err)
	}
}
