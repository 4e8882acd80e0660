package regress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/sim"
	"swiftsim/internal/snap"
)

// writeSnapshotFixture adds a checkpoint written by this build to the
// committed ones:
//
//	go test ./internal/regress/ -run SnapshotFixtures -write-snapshot-fixture
var writeSnapshotFixture = flag.Bool("write-snapshot-fixture", false, "write testdata/schema/v<snap.Version>.snap from the current simulator")

// TestSnapshotFixtures holds committed checkpoints to the snapshot
// compatibility rule. Each testdata/schema/v<N>.snap checkpoints BFS at
// scale 0.1 on the RTX 2080 Ti under Swift-Sim-Memory, halfway through. One
// written at the current snap.Version must restore to the canonical bytes of
// the uninterrupted run; one written at any other version must be refused
// with snap.ErrVersion, never misread. This build must also write the
// current version's fixture byte for byte when it checkpoints the same run.
// A layout change that bumps snap.Version keeps the old fixture, which then
// checks the refusal, and adds one at the new version with
// -write-snapshot-fixture.
func TestSnapshotFixtures(t *testing.T) {
	cs := Case{App: "BFS", Scale: 0.1, GPU: config.RTX2080Ti(), Opts: sim.Options{Kind: sim.Memory}}
	base, err := cs.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := Canonical(base)
	var buf bytes.Buffer
	c := cs
	c.Opts.SnapshotAt, c.Opts.SnapshotTo = base.Cycles/2, &buf
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	currentPath := filepath.Join("testdata", "schema", fmt.Sprintf("v%d.snap", snap.Version))
	if *writeSnapshotFixture {
		if err := os.WriteFile(currentPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if data, err := os.ReadFile(currentPath); err == nil && !bytes.Equal(data, buf.Bytes()) {
		t.Errorf("this build checkpoints the fixture's run to other bytes than %s (a layout change bumps snap.Version)", currentPath)
	}

	paths, err := filepath.Glob(filepath.Join("testdata", "schema", "v*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	current := false
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil || len(data) < 8 {
			t.Fatalf("%s: %d bytes, %v", path, len(data), err)
		}
		version := binary.LittleEndian.Uint32(data[4:8])
		c := cs
		c.Opts.RestoreFrom = bytes.NewReader(data)
		res, err := c.Run()
		switch {
		case version != snap.Version:
			if !errors.Is(err, snap.ErrVersion) {
				t.Errorf("%s (version %d): restore = %v, want snap.ErrVersion", path, version, err)
			}
		case err != nil:
			t.Errorf("%s: restore: %v", path, err)
		default:
			current = true
			if got := Canonical(res); !bytes.Equal(want, got) {
				t.Errorf("%s restored to other bytes than the uninterrupted run:\n%s", path, DiffLines(want, got, 20))
			}
		}
	}
	if !current {
		t.Errorf("no fixture restores at snapshot version %d (add one with -write-snapshot-fixture)", snap.Version)
	}
}
