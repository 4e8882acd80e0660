package smcore

import (
	"fmt"
	"strings"
	"testing"

	"swiftsim/internal/trace"
)

// fetchKernel is a kernel for one 8-slot sub-core whose warps each run
// their own code region, so every warp starts on an instruction-cache miss
// and the 64-line cache evicts: dependency chains (their buffers fill),
// loads with dependents, short warps (they exit while others run) and
// independent streams.
func fetchKernel() *trace.Kernel {
	const blocks, warps = 3, 4
	k := &trace.Kernel{
		Name:          "fetch",
		Grid:          trace.Dim3{X: blocks, Y: 1, Z: 1},
		Block:         trace.Dim3{X: warps * 32, Y: 1, Z: 1},
		RegsPerThread: 16,
	}
	for b := 0; b < blocks; b++ {
		var bt trace.BlockTrace
		for w := 0; w < warps; w++ {
			kb := &kbuilder{pc: uint64(b*warps+w) * 0x300}
			n := 3 + 7*w + 2*b
			for i := 0; i < n; i++ {
				switch w {
				case 0:
					kb.intOp(5, 5, 0)
				case 1:
					if i%3 == 0 {
						kb.loadAt(trace.Reg(i%20+1), uint64(0x1000*(b+1)+64*i))
					} else {
						kb.intOp(trace.Reg(i%20+2), trace.Reg(i%20+1), 0)
					}
				case 2:
					if i < 2 {
						kb.intOp(trace.Reg(i+1), 0, 0)
					}
				default:
					kb.intOp(trace.Reg(i%28+1), 0, 0)
				}
			}
			kb.emit(trace.Inst{Op: trace.OpExit, ActiveMask: 0xffffffff})
			bt.Warps = append(bt.Warps, kb.insts)
		}
		k.Blocks = append(k.Blocks, bt)
	}
	k.NumberMem()
	return k
}

// TestFetchOrderIsPinned records which warp slot the front end fetches
// for, cycle by cycle, on one sub-core, and holds the sequence to the one
// recorded before the front end kept a fetch set. The round robin resumes
// its second fetch of a cycle from the first fetch's offset past the
// cursor, not from the slot after the first fetch, so it can skip slots
// and fetch one warp twice in a cycle; the order of ICache.Ready calls
// decides fills, prefetches and evictions, so the i-cache's final FIFO and
// its hit and miss counts are pinned too.
//
// Fetches are read from the ready-set hook, which runs after every tick:
// a warp's fetches in a tick are its ibuf growth plus its pc growth (every
// issue consumes one buffered instruction). Of two different slots fetched
// in one cycle, the second is where the cursor stops.
func TestFetchOrderIsPinned(t *testing.T) {
	cfg := testSMConfig()
	cfg.SubCores = 1
	cfg.MaxWarps = 8
	h := newSMHarness(t, cfg)
	sc := h.sm.subcores[0]

	type seen struct{ ibuf, pc int }
	var tracked []*Warp
	last := map[*Warp]seen{}
	var lines []string
	doubles := 0
	readyCheck = func(sm *SM, _ bool) {
		for _, w := range sc.warps {
			if _, ok := last[w]; w != nil && !ok {
				tracked = append(tracked, w)
				last[w] = seen{}
			}
		}
		var slots []int
		for _, w := range tracked {
			prev := last[w]
			for n := (w.ibuf - prev.ibuf) + (w.pc - prev.pc); n > 0; n-- {
				slots = append(slots, w.slot)
			}
			last[w] = seen{w.ibuf, w.pc}
		}
		switch {
		case len(slots) == 0:
			return
		case len(slots) > fetchPerCycle:
			t.Fatalf("cycle %d: %d fetches, at most %d a cycle", sm.lastCycle, len(slots), fetchPerCycle)
		case len(slots) == 2 && slots[0] == slots[1]:
			doubles++
		case len(slots) == 2 && slots[0] == sc.fetchCursor:
			slots[0], slots[1] = slots[1], slots[0]
		}
		if slots[len(slots)-1] != sc.fetchCursor {
			t.Fatalf("cycle %d: fetched slots %v, cursor stopped at %d", sm.lastCycle, slots, sc.fetchCursor)
		}
		lines = append(lines, fmt.Sprintf("%d: %s", sm.lastCycle, strings.Trim(fmt.Sprint(slots), "[]")))
	}
	t.Cleanup(func() { readyCheck = nil })

	cycles := h.run(t, fetchKernel())
	ic := sc.icache
	lines = append(lines,
		fmt.Sprintf("cycles %d, icache hit %d miss %d", cycles, h.g.Value("icache.hit"), h.g.Value("icache.miss")),
		fmt.Sprintf("icache lines %x", ic.order()))
	if doubles == 0 {
		t.Error("no cycle fetched one warp twice; the kernel no longer reaches the cursor quirk")
	}
	CheckPinned(t, "testdata/fetch_order.txt", strings.Join(lines, "\n")+"\n")
}
