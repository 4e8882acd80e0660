package reuse

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/workload"
)

var updateProfiles = flag.Bool("update-profiles", false, "rewrite testdata/profile_digests.txt (only from a tree whose profiles are known good)")

// profileDigest hashes every field of p, per-PC rates in key order, floats
// by their bits.
func profileDigest(p *Profile) [32]byte {
	h := sha256.New()
	put := func(vs ...uint64) {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, v))
		}
	}
	rates := func(r Rates) { put(math.Float64bits(r.L1), math.Float64bits(r.L2), math.Float64bits(r.DRAM)) }
	keys := make([]Key, 0, len(p.PerPC))
	for k := range p.PerPC {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b Key) int {
		return cmp.Or(cmp.Compare(a.Kernel, b.Kernel), cmp.Compare(a.PC, b.PC))
	})
	for _, k := range keys {
		put(uint64(k.Kernel), k.PC)
		rates(p.PerPC[k])
	}
	rates(p.Default)
	rates(p.DefaultReads)
	put(p.Accesses)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// TestProfilesKeepTheirBytes pins the profile of each of the 20 catalog
// apps at scale 0.5 on the three presets under both sources, plus the
// functional source under FIFO and Random replacement on the RTX 2080 Ti, by
// digests recorded at the commit before the fused tag access and the reused
// models. A profiler change that moves one rate bit fails here by name.
func TestProfilesKeepTheirBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles the whole catalog")
	}
	const path = "testdata/profile_digests.txt"
	var lines []string
	for _, name := range workload.Names() {
		app, err := workload.Generate(name, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		for _, preset := range config.PresetNames() {
			gpu, _ := config.Preset(preset)
			lines = append(lines,
				fmt.Sprintf("%s %s functional %x", name, preset, profileDigest(ProfileApp(app, gpu))),
				fmt.Sprintf("%s %s distance %x", name, preset, profileDigest(ProfileAppReuseDistance(app, gpu))))
		}
		for _, rep := range []config.Replacement{config.FIFO, config.Random} {
			gpu := config.RTX2080Ti()
			gpu.L1.Replacement, gpu.L2.Replacement = rep, rep
			lines = append(lines, fmt.Sprintf("%s RTX2080Ti-%s functional %x", name, rep, profileDigest(ProfileApp(app, gpu))))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateProfiles {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%d profiles, %d pinned", len(lines), len(wantLines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("profile moved:\n  got  %s\n  want %s", lines[i], wantLines[i])
		}
	}
}
