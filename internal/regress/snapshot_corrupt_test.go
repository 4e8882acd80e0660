package regress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"swiftsim/internal/sim"
	"swiftsim/internal/snap"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// Snapshot decode hardening: a corrupt checkpoint — truncated mid-field,
// counts inflated past the payload, module sections reordered — must
// degrade into a structured "cannot restore" error via the snap.Codec's
// sticky error, never a panic or a silent misparse. These tests corrupt a
// real checkpoint structurally (not random bit flips — that is
// FuzzParseSnapshot's job in internal/sim) and assert the decoder refuses
// each specific damage class.

// checkpointLayout records the byte offsets of the structurally
// interesting fields of a checkpoint stream, recovered by walking the
// format exactly as the decoder does.
type checkpointLayout struct {
	nkcOff     int      // run-position kernel-duration count (u64)
	boolOff    int      // the first DRAM partition's last row-open flag (bool byte)
	emptyOff   int      // the crossbar's first return-queue count (u64), always 0
	validOff   int      // the valid byte of a valid line of the first L2's tag array
	invalidOff int      // the valid byte of an invalid line of the same array
	modCntOff  int      // engine-section module count (u64)
	modFrames  [][2]int // [start,end) of each module frame (name + payload)
	retCntOff  int      // engine-section pending-retirement count (u64)
	retOffs    []int    // start of each pending retirement
	metricsOff int      // metrics-section counter count (u64)
}

// tagLineBytes is one tag line's size in a cache's payload: line address,
// valid byte, sector valid and dirty masks, LRU and FIFO stamps.
const tagLineBytes = 8 + 1 + 4 + 4 + 8 + 8

// retirementBytes is one pending retirement's size in the engine section:
// due cycle, stage, level, and the request's address, size, PC, SM and
// write flag.
const retirementBytes = 8 + 8 + 4 + 8 + 8 + 8 + 8 + 1

// walkCheckpoint recovers the layout of a valid checkpoint stream. It
// mirrors the writer's field sequence (see internal/sim/snapshot.go); a
// format change that breaks this walk also breaks the decoder tests,
// which is exactly when they must be revisited.
func walkCheckpoint(t *testing.T, data []byte) checkpointLayout {
	t.Helper()
	pos := 8 // magic + version
	u64 := func() uint64 {
		v := binary.LittleEndian.Uint64(data[pos:])
		pos += 8
		return v
	}
	str := func() { n := u64(); pos += int(n) }

	var lay checkpointLayout
	// Identity section: app, kernel count, gpu, options identity.
	str()
	u64()
	str()
	str()
	// Run-position section.
	u64() // next kernel
	lay.nkcOff = pos
	nkc := u64()
	pos += int(nkc) * 8
	u64() // extrapolated
	u64() // overhead
	// Engine section: one length-framed payload.
	elen := u64()
	engineEnd := pos + int(elen)
	for i := 0; i < 5; i++ {
		u64() // scheduler counters
	}
	lay.modCntOff = pos
	nMod := u64()
	for i := uint64(0); i < nMod; i++ {
		start := pos
		nameLen := u64()
		name := string(data[pos : pos+int(nameLen)])
		pos += int(nameLen)
		plen := u64() // payload frame
		switch {
		case name == "dram" && lay.boolOff == 0:
			// The bank table ends the payload: per bank the free cycle,
			// the open row and the row-open flag (internal/dram).
			lay.boolOff = pos + int(plen) - 1
		case name == "noc":
			// The crossbar's payload opens with its return-queue counts
			// (internal/noc).
			lay.emptyOff = pos
		case name == "l2" && lay.validOff == 0:
			// The tag array ends the payload: its line count, then the
			// lines (internal/cache).
			lay.validOff, lay.invalidOff = tagLines(t, data, pos+int(plen))
		}
		pos += int(plen)
		lay.modFrames = append(lay.modFrames, [2]int{start, pos})
	}
	lay.retCntOff = pos
	for n := u64(); n > 0; n-- {
		lay.retOffs = append(lay.retOffs, pos)
		pos += retirementBytes
	}
	if pos != engineEnd {
		t.Fatalf("walk desynced: engine section ends at %d, walk reached %d", engineEnd, pos)
	}
	if len(lay.retOffs) == 0 || lay.boolOff == 0 || lay.emptyOff == 0 {
		t.Fatalf("checkpoint has %d pending retirements, DRAM flag at %d, return-queue count at %d: want all three",
			len(lay.retOffs), lay.boolOff, lay.emptyOff)
	}
	if lay.validOff == 0 || lay.invalidOff == 0 {
		t.Fatalf("first L2 has a valid line's flag at %d and an invalid line's at %d: want both", lay.validOff, lay.invalidOff)
	}
	lay.metricsOff = pos
	return lay
}

// tagLines finds, in the L2 tag array whose payload ends at end, the valid
// byte of a valid line and of an invalid one (0 when the array has none).
func tagLines(t *testing.T, data []byte, end int) (validOff, invalidOff int) {
	t.Helper()
	l2 := DefaultCorpus().GPUs[0].L2
	n := l2.Sets * l2.Ways
	start := end - n*tagLineBytes
	if got := binary.LittleEndian.Uint64(data[start-8:]); got != uint64(n) {
		t.Fatalf("L2 tag array: line count %d before its %d lines", got, n)
	}
	for off := start + 8; off < end; off += tagLineBytes {
		mask := binary.LittleEndian.Uint32(data[off+1:])
		switch {
		case data[off] == 1 && mask != 0 && validOff == 0:
			validOff = off
		case data[off] == 0 && mask == 0 && invalidOff == 0:
			invalidOff = off
		}
	}
	return validOff, invalidOff
}

// makeCheckpoint runs BFS under Swift-Sim-Basic, checkpointing at the
// first kernel boundary past half its cycles, where stores are still in
// flight, and returns the checkpoint bytes plus the app for restore
// attempts.
func makeCheckpoint(t *testing.T) ([]byte, *trace.App) {
	t.Helper()
	gpu := DefaultCorpus().GPUs[0]
	app, err := workload.Generate("BFS", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Run(app, gpu, sim.Options{Kind: sim.Basic})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sim.Run(app, gpu, sim.Options{
		Kind: sim.Basic, SnapshotAt: base.Cycles / 2, SnapshotTo: &buf,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), app
}

// restoreErr attempts to restore a (possibly corrupted) checkpoint and
// returns the error. The assembly and options must match the checkpoint so
// the only failure source is the corruption under test.
func restoreErr(t *testing.T, app *trace.App, data []byte) error {
	t.Helper()
	_, err := sim.Run(app, DefaultCorpus().GPUs[0], sim.Options{
		Kind: sim.Basic, RestoreFrom: bytes.NewReader(data),
	})
	return err
}

func TestSnapshotCorruptTruncated(t *testing.T) {
	data, app := makeCheckpoint(t)
	lay := walkCheckpoint(t, data)
	// Cut points spanning every section: inside the header, inside the
	// identity strings, mid-count, mid-engine-frame, inside the pending
	// retirements, mid-metrics, and one byte short of a valid stream.
	last := lay.retOffs[len(lay.retOffs)-1]
	cuts := []int{0, 3, 7, 8, 12, lay.nkcOff + 4, lay.boolOff,
		lay.modCntOff + 2, (lay.modFrames[0][0] + lay.modFrames[0][1]) / 2,
		lay.retCntOff + 4, lay.retOffs[0] + 12, last + retirementBytes/2, last + retirementBytes - 1,
		lay.metricsOff + 1, len(data) - 1}
	for _, cut := range cuts {
		if cut >= len(data) {
			continue
		}
		trunc := data[:cut]
		if err := sim.ParseSnapshot(trunc); err == nil {
			t.Errorf("ParseSnapshot accepted a stream truncated at byte %d of %d", cut, len(data))
		}
		err := restoreErr(t, app, trunc)
		if err == nil {
			t.Errorf("restore accepted a stream truncated at byte %d of %d", cut, len(data))
			continue
		}
		if !errors.Is(err, snap.ErrTruncated) && !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("truncation at byte %d: error %v, want snap.ErrTruncated or snap.ErrCorrupt", cut, err)
		}
	}
}

func TestSnapshotCorruptOverCapCounts(t *testing.T) {
	data, app := makeCheckpoint(t)
	lay := walkCheckpoint(t, data)
	cases := []struct {
		name string
		off  int
	}{
		{"kernel-duration count", lay.nkcOff},
		{"module count", lay.modCntOff},
		{"pending-retirement count", lay.retCntOff},
		{"metrics count", lay.metricsOff},
	}
	for _, c := range cases {
		corrupt := append([]byte(nil), data...)
		// A count far past the remaining payload: the capped-allocation
		// check must reject it before any oversized make().
		binary.LittleEndian.PutUint64(corrupt[c.off:], 1<<40)
		err := restoreErr(t, app, corrupt)
		if err == nil {
			t.Errorf("%s: restore accepted count 2^40", c.name)
			continue
		}
		if !errors.Is(err, snap.ErrCorrupt) && !errors.Is(err, snap.ErrTruncated) {
			t.Errorf("%s: error %v, want snap.ErrCorrupt or snap.ErrTruncated", c.name, err)
		}
	}
}

func TestSnapshotCorruptBoolByte(t *testing.T) {
	data, app := makeCheckpoint(t)
	lay := walkCheckpoint(t, data)
	corrupt := append([]byte(nil), data...)
	corrupt[lay.boolOff] = 7 // bools are strictly 0 or 1
	err := restoreErr(t, app, corrupt)
	if !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("restore of a 0x07 bool byte: error %v, want snap.ErrCorrupt", err)
	}
}

func TestSnapshotCorruptSectionOrder(t *testing.T) {
	data, app := makeCheckpoint(t)
	lay := walkCheckpoint(t, data)
	// Find two adjacent module frames with different names and swap them:
	// sections are matched positionally with the stored name as the
	// consistency check, so the decoder must notice the transposition.
	name := func(f [2]int) string {
		n := binary.LittleEndian.Uint64(data[f[0]:])
		return string(data[f[0]+8 : f[0]+8+int(n)])
	}
	swapped := -1
	for i := 0; i+1 < len(lay.modFrames); i++ {
		if name(lay.modFrames[i]) != name(lay.modFrames[i+1]) {
			swapped = i
			break
		}
	}
	if swapped < 0 {
		t.Fatal("checkpoint has no adjacent module frames with distinct names")
	}
	a, b := lay.modFrames[swapped], lay.modFrames[swapped+1]
	corrupt := append([]byte(nil), data[:a[0]]...)
	corrupt = append(corrupt, data[a[1]:b[1]]...) // frame B first
	corrupt = append(corrupt, data[a[0]:a[1]]...) // then frame A
	corrupt = append(corrupt, data[b[1]:]...)
	if len(corrupt) != len(data) {
		t.Fatalf("swap changed the stream length: %d -> %d", len(data), len(corrupt))
	}
	err := restoreErr(t, app, corrupt)
	if err == nil {
		t.Fatalf("restore accepted module sections %d and %d swapped (%q <-> %q)",
			swapped, swapped+1, name(a), name(b))
	}
	if !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("swapped module sections: error %v, want snap.ErrCorrupt", err)
	}
}

// TestSnapshotCorruptRetirementStage: a pending retirement names its stage
// by its place among the modules' stages; an index past the module list
// must be refused.
func TestSnapshotCorruptRetirementStage(t *testing.T) {
	data, app := makeCheckpoint(t)
	lay := walkCheckpoint(t, data)
	corrupt := append([]byte(nil), data...)
	// The stage index follows the due cycle.
	binary.LittleEndian.PutUint64(corrupt[lay.retOffs[0]+8:], uint64(len(lay.modFrames)))
	if err := restoreErr(t, app, corrupt); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("restore of a stage index past the module list: error %v, want snap.ErrCorrupt", err)
	}
}

// TestSnapshotCorruptNonEmptyReturnQueue: a crossbar return queue carries
// only answers, which no kernel boundary has in flight, so the checkpoint
// holds its count as 0; a stream claiming a request there must be refused.
func TestSnapshotCorruptNonEmptyReturnQueue(t *testing.T) {
	data, app := makeCheckpoint(t)
	lay := walkCheckpoint(t, data)
	corrupt := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(corrupt[lay.emptyOff:], 1)
	if err := restoreErr(t, app, corrupt); !errors.Is(err, snap.ErrCorrupt) {
		t.Errorf("restore of a request in a return queue: error %v, want snap.ErrCorrupt", err)
	}
}

// TestSnapshotCorruptTagLineValid: a tag line is valid exactly when its
// sector mask is non-zero, so a valid byte that disagrees with the mask,
// either way, must be refused.
func TestSnapshotCorruptTagLineValid(t *testing.T) {
	data, app := makeCheckpoint(t)
	lay := walkCheckpoint(t, data)
	for _, c := range []struct {
		name string
		off  int
		b    byte
	}{
		{"a valid line flagged invalid", lay.validOff, 0},
		{"an invalid line flagged valid", lay.invalidOff, 1},
	} {
		corrupt := append([]byte(nil), data...)
		corrupt[c.off] = c.b
		if err := restoreErr(t, app, corrupt); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("restore of %s: error %v, want snap.ErrCorrupt", c.name, err)
		}
	}
}
