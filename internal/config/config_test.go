package config

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, name := range PresetNames() {
		g, ok := Preset(name)
		if !ok {
			t.Fatalf("Preset(%q) not found", name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPresetUnknown(t *testing.T) {
	if _, ok := Preset("GTX1080"); ok {
		t.Fatal("Preset accepted unknown name")
	}
}

func TestTable1Values(t *testing.T) {
	// Table I of the paper.
	cases := []struct {
		g         GPU
		sms       int
		cudaCores int
		l2MiB     float64
	}{
		{RTX2080Ti(), 68, 4352, 5.5},
		{RTX3060(), 28, 3584, 3.0},
		{RTX3090(), 82, 10496, 6.0},
	}
	for _, c := range cases {
		if c.g.NumSMs != c.sms {
			t.Errorf("%s: NumSMs = %d, want %d", c.g.Name, c.g.NumSMs, c.sms)
		}
		if got := c.g.CUDACores(); got != c.cudaCores {
			t.Errorf("%s: CUDACores = %d, want %d", c.g.Name, got, c.cudaCores)
		}
		if got := float64(c.g.L2TotalBytes()) / (1 << 20); got != c.l2MiB {
			t.Errorf("%s: L2 total = %.2f MiB, want %.2f", c.g.Name, got, c.l2MiB)
		}
	}
}

func TestTable2Values(t *testing.T) {
	// Table II of the paper for the RTX 2080 Ti.
	g := RTX2080Ti()
	if g.SM.SubCores != 4 {
		t.Errorf("SubCores = %d, want 4", g.SM.SubCores)
	}
	if g.SM.Scheduler != GTO {
		t.Errorf("Scheduler = %v, want GTO", g.SM.Scheduler)
	}
	if g.SM.IntLanes != 16 || g.SM.SPLanes != 16 || g.SM.SFULanes != 4 || g.SM.LDSTLanes != 4 {
		t.Errorf("lanes = INT:%d SP:%d SFU:%d LDST:%d, want 16/16/4/4",
			g.SM.IntLanes, g.SM.SPLanes, g.SM.SFULanes, g.SM.LDSTLanes)
	}
	if !g.SM.DPLanesHalf {
		t.Error("DPLanesHalf = false, want true (DP:0.5x)")
	}
	if g.L1.LineBytes != 128 || g.L1.SectorBytes != 32 || g.L1.Banks != 4 {
		t.Errorf("L1 line/sector/banks = %d/%d/%d, want 128/32/4",
			g.L1.LineBytes, g.L1.SectorBytes, g.L1.Banks)
	}
	if g.L1.MSHREntries != 256 || g.L1.MSHRMaxMerge != 8 || g.L1.HitLatency != 32 {
		t.Errorf("L1 MSHR/merge/latency = %d/%d/%d, want 256/8/32",
			g.L1.MSHREntries, g.L1.MSHRMaxMerge, g.L1.HitLatency)
	}
	if g.L1.WriteBack {
		t.Error("L1 must be write-through")
	}
	if g.L2.MSHREntries != 192 || g.L2.MSHRMaxMerge != 4 || g.L2.HitLatency != 188 {
		t.Errorf("L2 MSHR/merge/latency = %d/%d/%d, want 192/4/188",
			g.L2.MSHREntries, g.L2.MSHRMaxMerge, g.L2.HitLatency)
	}
	if !g.L2.WriteBack {
		t.Error("L2 must be write-back")
	}
	if g.MemPartitions != 22 || g.DRAMLatency != 227 {
		t.Errorf("partitions/DRAM = %d/%d, want 22/227", g.MemPartitions, g.DRAMLatency)
	}
}

func TestIssueInterval(t *testing.T) {
	var sm SM
	cases := []struct{ lanes, want int }{
		{32, 1}, {16, 2}, {8, 4}, {4, 8}, {1, 32}, {0, 64}, {5, 7},
	}
	for _, c := range cases {
		if got := sm.IssueInterval(c.lanes); got != c.want {
			t.Errorf("IssueInterval(%d) = %d, want %d", c.lanes, got, c.want)
		}
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		want, _ := Preset(name)
		got, err := Parse(strings.NewReader(string(Marshal(want))))
		if err != nil {
			t.Fatalf("%s: Parse: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestMarshalPresetBytes pins Marshal's output for the three presets: the
// sweep service hashes these bytes into every job's cache key, so a change
// to them, even a reordering, moves every key.
func TestMarshalPresetBytes(t *testing.T) {
	for name, want := range map[string]string{
		"RTX2080Ti": "7078027f2614a279f714fbdf18a183ad2371ba3bf689b2c39cccac3625621649",
		"RTX3060":   "d77fb5a2a58682ea800c9010339b29a3032bf4683a30716355132c6a8c154485",
		"RTX3090":   "3f7d1fa2127a4e3c35aeef509c0cbcb2ef4e9515ee34523c3cf82770b545f74f",
	} {
		g, _ := Preset(name)
		if got := fmt.Sprintf("%x", sha256.Sum256(Marshal(g))); got != want {
			t.Errorf("%s: sha256(Marshal) = %s, want %s", name, got, want)
		}
	}
}

// leafPaths appends the dotted path of every leaf field under v, depth
// first.
func leafPaths(paths []string, prefix string, v reflect.Value) []string {
	if v.Kind() != reflect.Struct {
		return append(paths, strings.TrimPrefix(prefix, "."))
	}
	for i := 0; i < v.NumField(); i++ {
		paths = leafPaths(paths, prefix+"."+v.Type().Field(i).Name, v.Field(i))
	}
	return paths
}

// TestEveryKeyIsItsOwnField walks GPU leaf by leaf. Perturbing one leaf must
// change exactly one key's line of Marshal's output, and setting that line
// over the unperturbed GPU, as Parse does line by line, must give the
// perturbed GPU back. A key wired to another field, or two keys to one,
// fails here even where the presets' round trip cannot tell, because the two
// fields hold equal values there.
func TestEveryKeyIsItsOwnField(t *testing.T) {
	base := RTX2080Ti()
	baseLines := strings.Split(string(Marshal(base)), "\n")
	for _, path := range leafPaths(nil, "", reflect.ValueOf(base)) {
		g := base
		v := reflect.ValueOf(&g).Elem()
		for _, name := range strings.Split(path, ".") {
			v = v.FieldByName(name)
		}
		switch {
		case v.Type() == reflect.TypeOf(LRU) || v.Type() == reflect.TypeOf(GTO):
			v.SetInt((v.Int() + 1) % 3)
		case path == "NoCTopology":
			v.SetString("ring")
		case v.Kind() == reflect.Int:
			v.SetInt(2 * v.Int())
		case v.Kind() == reflect.Bool:
			v.SetBool(!v.Bool())
		case v.Kind() == reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s: no perturbation for kind %v", path, v.Kind())
		}
		var changed []string
		for i, line := range strings.Split(string(Marshal(g)), "\n") {
			if line != baseLines[i] && !strings.HasPrefix(line, "#") {
				changed = append(changed, line)
			}
		}
		if len(changed) != 1 {
			t.Errorf("%s: perturbing it changed %d key lines %q, want 1", path, len(changed), changed)
			continue
		}
		key, val, _ := strings.Cut(changed[0], " = ")
		back := base
		if err := set(&back, key, val); err != nil {
			t.Errorf("%s: %v", path, err)
		} else if back != g {
			t.Errorf("%s: its line %q sets another field", path, changed[0])
		}
	}
}

func TestParseBasePreset(t *testing.T) {
	text := "gpu.base = RTX2080Ti\ngpu.num_sms = 40\nl1.replacement = FIFO\n"
	g, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSMs != 40 {
		t.Errorf("NumSMs = %d, want 40", g.NumSMs)
	}
	if g.L1.Replacement != FIFO {
		t.Errorf("L1.Replacement = %v, want FIFO", g.L1.Replacement)
	}
	// Untouched fields come from the preset.
	if g.MemPartitions != 22 {
		t.Errorf("MemPartitions = %d, want 22", g.MemPartitions)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text, wantSub string
	}{
		{"garbage line", "gpu.base = RTX2080Ti\nnot a config line\n", "expected key = value"},
		{"unknown key", "gpu.base = RTX2080Ti\ngpu.bogus = 3\n", "unknown configuration key"},
		// Keys of fields no model read; an old file naming one fails loudly.
		{"removed sm.warp_size", "gpu.base = RTX2080Ti\nsm.warp_size = 32\n", "unknown configuration key"},
		{"removed l1.streaming", "gpu.base = RTX2080Ti\nl1.streaming = true\n", "unknown configuration key"},
		{"removed l2.streaming", "gpu.base = RTX2080Ti\nl2.streaming = false\n", "unknown configuration key"},
		{"bad int", "gpu.base = RTX2080Ti\ngpu.num_sms = many\n", "not an integer"},
		{"bad bool", "gpu.base = RTX2080Ti\nl1.write_back = si\n", "not a boolean"},
		{"bad policy", "gpu.base = RTX2080Ti\nsm.scheduler = FAIR\n", "unknown scheduler policy"},
		{"bad replacement", "gpu.base = RTX2080Ti\nl2.replacement = PLRU\n", "unknown replacement policy"},
		{"unknown base", "gpu.base = GTX285\n", "unknown preset"},
		{"duplicate key", "gpu.base = RTX2080Ti\ngpu.num_sms = 4\ngpu.num_sms = 5\n", "duplicate key"},
		{"invalid after apply", "gpu.base = RTX2080Ti\ngpu.num_sms = 0\n", "must be positive"},
		{"empty value", "gpu.name =\n", "empty key or value"},
		{"no base incomplete", "gpu.name = X\n", ""},
	}
	for _, c := range cases {
		_, err := Parse(strings.NewReader(c.text))
		if err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
			continue
		}
		if c.wantSub != "" && !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.wantSub)
		}
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	text := `
# full line comment
gpu.base = RTX2080Ti # trailing comment

gpu.num_sms = 10
`
	g, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSMs != 10 {
		t.Errorf("NumSMs = %d, want 10", g.NumSMs)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*GPU)
	}{
		{"no name", func(g *GPU) { g.Name = "" }},
		{"zero SMs", func(g *GPU) { g.NumSMs = 0 }},
		{"zero partitions", func(g *GPU) { g.MemPartitions = 0 }},
		{"negative noc", func(g *GPU) { g.NoCLatency = -1 }},
		{"zero dram latency", func(g *GPU) { g.DRAMLatency = 0 }},
		{"zero dram banks", func(g *GPU) { g.DRAMBanksPerPartition = 0 }},
		{"warps not divisible", func(g *GPU) { g.SM.MaxWarps = 33 }},
		{"zero blocks", func(g *GPU) { g.SM.MaxBlocks = 0 }},
		{"zero regs", func(g *GPU) { g.SM.Registers = 0 }},
		{"neg shared", func(g *GPU) { g.SM.SharedMemBytes = -1 }},
		{"zero lanes", func(g *GPU) { g.SM.SPLanes = 0 }},
		{"neg dp lanes", func(g *GPU) { g.SM.DPLanes = -1 }},
		{"zero latency", func(g *GPU) { g.SM.SPLatency = 0 }},
		{"zero shmem latency", func(g *GPU) { g.SM.SharedMemLatency = 0 }},
		{"l1 sets not pow2", func(g *GPU) { g.L1.Sets = 3 }},
		{"l1 zero ways", func(g *GPU) { g.L1.Ways = 0 }},
		{"l1 sector > line", func(g *GPU) { g.L1.SectorBytes = 256 }},
		{"l1 banks not pow2", func(g *GPU) { g.L1.Banks = 3 }},
		{"l1 zero mshr", func(g *GPU) { g.L1.MSHREntries = 0 }},
		{"l1 zero merge", func(g *GPU) { g.L1.MSHRMaxMerge = 0 }},
		{"l1 zero latency", func(g *GPU) { g.L1.HitLatency = 0 }},
		{"l1 zero throughput", func(g *GPU) { g.L1.Throughput = 0 }},
		{"l1 write-back", func(g *GPU) { g.L1.WriteBack = true }},
		{"l2 sets not pow2", func(g *GPU) { g.L2.Sets = 7 }},
	}
	for _, m := range mutations {
		g := RTX2080Ti()
		m.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", m.name)
		}
	}
}

func TestWriteLoadFile(t *testing.T) {
	path := t.TempDir() + "/gpu.cfg"
	want := RTX3090()
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("file round trip mismatch")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(t.TempDir() + "/nonexistent.cfg"); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestPolicyStrings(t *testing.T) {
	for _, p := range []SchedPolicy{GTO, LRR, OldestFirst} {
		got, err := ParseSchedPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParseSchedPolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	for _, r := range []Replacement{LRU, FIFO, Random} {
		got, err := ParseReplacement(r.String())
		if err != nil || got != r {
			t.Errorf("ParseReplacement(%q) = %v, %v", r.String(), got, err)
		}
	}
	if SchedPolicy(99).String() == "" || Replacement(99).String() == "" {
		t.Error("String() of unknown enum must be non-empty")
	}
}
