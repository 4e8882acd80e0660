package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// validSGT is a small hand-written trace covering every syntactic feature:
// two kernels, multi-block grids, multi-warp blocks, comments, blank
// lines, and instructions with and without address lists.
const validSGT = `sgt 1
# comment lines and blank lines are ignored

app demo suite test kernels 2
kernel k0 grid 2,1,1 block 64,1,1 regs 16 shmem 0
blocktrace 0
warp 0 insts 3
0 LDG 1 0 0 f 10000000 10000004 10000008 1000000c
8 INT 2 1 0 f
16 EXIT 0 0 0 0
warp 1 insts 2
0 SP 1 0 0 3
8 EXIT 0 0 0 0
blocktrace 1
warp 0 insts 3
0 LDG 1 0 0 1 10000040
8 STG 0 1 0 1 20000000
16 EXIT 0 0 0 0
warp 1 insts 2
0 DP 1 0 0 1
8 EXIT 0 0 0 0
kernel k1 grid 1,1,1 block 32,1,1 regs 8 shmem 2048
blocktrace 0
warp 0 insts 5
0 LDS 1 0 0 3 0 4
8 SFU 2 1 0 3
16 BAR 0 0 0 0
24 STS 0 1 0 1 8
32 EXIT 0 0 0 0
endapp
`

// lanesSGT is one warp whose memory instructions cover both lane forms:
// evenly spaced lanes (strided), one address for every lane (a broadcast),
// a negative stride, lanes that wrap past 2^64, a scatter, and an even
// spacing too wide for an int32, which stays listed. want is each memory
// instruction's form as Read must keep it: its Stride, or listed.
var lanesSGT, lanesWant = func() (string, []struct {
	listed bool
	stride int32
}) {
	lanes := func(n int, base, step uint64) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, " %x", base+uint64(i)*step)
		}
		return b.String()
	}
	text := "sgt 1\napp lanes suite test kernels 1\n" +
		"kernel k grid 1,1,1 block 32,1,1 regs 8 shmem 0\nblocktrace 0\nwarp 0 insts 7\n" +
		"0 LDG 1 0 0 ffffffff" + lanes(32, 0x1000, 4) + "\n" +
		"8 LDG 2 0 0 f0f0" + lanes(8, 0x2000, 0) + "\n" +
		"16 STG 0 1 0 ff" + lanes(8, 0x9000, ^uint64(3)) + "\n" +
		"24 LDG 3 0 0 7" + lanes(3, ^uint64(7), 4) + "\n" +
		"32 LDS 4 0 0 f 10 0 30 4\n" +
		"40 LDG 5 0 0 3" + lanes(2, 0, 1<<32) + "\n" +
		"48 EXIT 0 0 0 0\nendapp\n"
	return text, []struct {
		listed bool
		stride int32
	}{{false, 4}, {false, 0}, {false, -4}, {false, 4}, {true, 0}, {true, 0}}
}()

// TestReadKeepsEachLaneForm: Read holds evenly spaced lanes strided and the
// rest listed, expands them back into the same addresses, and writes back
// the bytes it read. A line listing fewer addresses than active lanes is
// rejected rather than read as a strided instruction.
func TestReadKeepsEachLaneForm(t *testing.T) {
	app, err := Read(strings.NewReader(lanesSGT))
	if err != nil {
		t.Fatal(err)
	}
	w := app.Kernels[0].Blocks[0].Warps[0]
	for i, want := range lanesWant {
		in := &w[i]
		if listed := in.Listed(); listed != want.listed || !listed && in.Stride != want.stride {
			t.Errorf("inst %d: listed %v, stride %d; want listed %v, stride %d",
				i, listed, in.Stride, want.listed, want.stride)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, app); err != nil {
		t.Fatal(err)
	}
	if buf.String() != lanesSGT {
		t.Errorf("Write of Read changed the text:\n%s\nwant\n%s", buf.String(), lanesSGT)
	}
	short := strings.Replace(lanesSGT, "8 LDG 2 0 0 f0f0"+strings.Repeat(" 2000", 8), "8 LDG 2 0 0 f0f0 2000", 1)
	if short == lanesSGT {
		t.Fatal("the broadcast line was not found")
	}
	if _, err := Read(strings.NewReader(short)); err == nil || !strings.Contains(err.Error(), "1 addresses for 8 active lanes") {
		t.Errorf("a broadcast listing one address for 8 lanes: %v, want it rejected", err)
	}
}

// FuzzParseTrace asserts the .sgt parser never panics or runs away on
// arbitrary input, and that any input it accepts survives a
// Write/Read round trip unchanged (the parser and serializer agree).
func FuzzParseTrace(f *testing.F) {
	f.Add(validSGT)
	// Malformed seeds steer the fuzzer toward each parser stage.
	f.Add("")
	f.Add("sgt 1")
	f.Add("sgt 2\napp x suite y kernels 1\n")
	f.Add("sgt 1\napp x suite y kernels 99999999\n")
	f.Add("sgt 1\napp x suite y kernels 1\nkernel k grid 9999999,9999999,9999999 block 1,1,1 regs 0 shmem 0\n")
	f.Add("sgt 1\napp x suite y kernels 1\nkernel k grid 1,1,1 block -5,1,1 regs 0 shmem 0\n")
	f.Add("sgt 1\napp x suite y kernels 1\nkernel k grid 1,1,1 block 32,1,1 regs 8 shmem 0\nblocktrace 0\nwarp 0 insts 67108864\n")
	f.Add("sgt 1\napp x suite y kernels 1\nkernel k grid 1,1,1 block 32,1,1 regs 8 shmem 0\nblocktrace 0\nwarp 0 insts 1\n0 bogus.op 0 0 0 ff\n")
	f.Add(strings.Replace(validSGT, "LDG", "zz.op", 1))
	f.Add(strings.Replace(validSGT, "insts 3", "insts 1", 1))
	// Both lane forms, and a short lane list that must not pass for one.
	f.Add(lanesSGT)
	f.Add(strings.Replace(lanesSGT, " 1004 1008", "", 1))

	f.Fuzz(func(t *testing.T, data string) {
		app, err := Read(strings.NewReader(data))
		if err != nil {
			return // rejected input: must only be reported, never panic
		}
		var buf bytes.Buffer
		if err := Write(&buf, app); err != nil {
			t.Fatalf("serializing accepted trace: %v", err)
		}
		app2, err := Read(&buf)
		if err != nil {
			t.Fatalf("reparsing serialized trace: %v\ninput:\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(app, app2) {
			t.Fatalf("round trip changed the trace\noriginal: %+v\nreparsed: %+v", app, app2)
		}
	})
}
