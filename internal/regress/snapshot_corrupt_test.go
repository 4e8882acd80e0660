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
// degrade into a structured "cannot restore" error via the snap.Reader's
// sticky error, never a panic or a silent misparse. These tests corrupt a
// real checkpoint structurally (not random bit flips — that is
// FuzzParseSnapshot's job in internal/sim) and assert the decoder refuses
// each specific damage class.

// checkpointLayout records the byte offsets of the structurally
// interesting fields of a checkpoint stream, recovered by walking the
// format exactly as the decoder does.
type checkpointLayout struct {
	nkcOff     int      // run-position kernel-duration count (u64)
	boolOff    int      // first L1 tag's valid flag (bool byte)
	modCntOff  int      // engine-section module count (u64)
	modFrames  [][2]int // [start,end) of each module frame (name + payload)
	metricsOff int      // metrics-section counter count (u64)
}

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
		if name == "l1" && lay.boolOff == 0 {
			// An LRU tag array: clock, line count, then per line the
			// address followed by the valid flag (internal/cache).
			lay.boolOff = pos + 3*8
		}
		pos += int(plen)
		lay.modFrames = append(lay.modFrames, [2]int{start, pos})
	}
	if pos != engineEnd {
		t.Fatalf("walk desynced: engine section ends at %d, walk reached %d", engineEnd, pos)
	}
	lay.metricsOff = pos
	return lay
}

// makeCheckpoint runs BFS mid-run checkpointing on the L2Hybrid
// configuration (its kernel boundaries are quiescent) and returns the
// checkpoint bytes plus the app for restore attempts.
func makeCheckpoint(t *testing.T) ([]byte, *trace.App) {
	t.Helper()
	gpu := DefaultCorpus().GPUs[0]
	app, err := workload.Generate("BFS", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Run(app, gpu, sim.Options{Kind: sim.L2Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := sim.Run(app, gpu, sim.Options{
		Kind: sim.L2Hybrid, SnapshotAt: base.Cycles / 2, SnapshotTo: &buf,
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
		Kind: sim.L2Hybrid, RestoreFrom: bytes.NewReader(data),
	})
	return err
}

func TestSnapshotCorruptTruncated(t *testing.T) {
	data, app := makeCheckpoint(t)
	lay := walkCheckpoint(t, data)
	// Cut points spanning every section: inside the header, inside the
	// identity strings, mid-count, mid-engine-frame, mid-metrics, and one
	// byte short of a valid stream.
	cuts := []int{0, 3, 7, 8, 12, lay.nkcOff + 4, lay.boolOff,
		lay.modCntOff + 2, (lay.modFrames[0][0] + lay.modFrames[0][1]) / 2,
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
