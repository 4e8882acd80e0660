// Snapshot support (snap.Stateful) for the SM core modules. All state is
// captured at quiescent kernel boundaries: no blocks are resident, no warp
// is in flight, and every pipeline register is empty — what remains is the
// timing bookkeeping that carries across kernels (ages, issue-port cursors,
// instruction-cache contents, stall accounting).
package smcore

import (
	"fmt"

	"swiftsim/internal/snap"
)

// Snap implements snap.Stateful.
func (sm *SM) Snap(c *snap.Codec) {
	if len(sm.blocks) != 0 || sm.usedWarps != 0 || sm.usedRegs != 0 || sm.usedShmem != 0 || sm.busyCache {
		c.Fail(fmt.Errorf("%w: SM%d has %d resident blocks", snap.ErrNotQuiescent, sm.id, len(sm.blocks)))
		return
	}
	c.U64(&sm.nextAge)
	c.U64(&sm.lastCycle)
	c.U64(&sm.accounted)
	if !c.Match(len(sm.subcores), 0, "sub-cores") {
		return
	}
	for _, sc := range sm.subcores {
		for _, warp := range sc.warps {
			if warp != nil {
				c.Fail(fmt.Errorf("%w: SM%d sub-core %d holds a warp", snap.ErrNotQuiescent, sm.id, sc.index))
				return
			}
		}
		c.Int(&sc.cursor)
		c.Int(&sc.fetchCursor)
		c.U64(&sc.epoch)
		if c.Has(sc.icache != nil, "instruction cache") {
			sc.icache.snap(c)
		}
	}
	if !c.Match(len(sm.unitList), 0, "units") {
		return
	}
	for _, u := range sm.unitList {
		if s, ok := u.(snap.Stateful); ok {
			s.Snap(c)
		}
	}
}

// Snap implements snap.Stateful. The cursor (round-robin start SM) is the
// scheduler's only cross-kernel state; launch bookkeeping is reset by
// LaunchKernel.
func (bs *BlockScheduler) Snap(c *snap.Codec) {
	if !bs.KernelDone() {
		c.Fail(fmt.Errorf("%w: block scheduler mid-kernel (%d/%d blocks)", snap.ErrNotQuiescent,
			bs.done, len(bs.kernel.Blocks)))
		return
	}
	c.Int(&bs.cursor)
	if len(bs.sms) > 0 && uint(bs.cursor) >= uint(len(bs.sms)) {
		c.Failf("block scheduler cursor %d out of range for %d SMs", uint64(bs.cursor), len(bs.sms))
	}
}

// Snap implements snap.Stateful: the pipeline registers must be empty at a
// quiescent point; only the issue port's next-free cycle persists. The
// ring's head is not walked: an empty ring has no order to keep.
func (u *ALUPipeline) Snap(c *snap.Codec) {
	if u.occupancy != 0 {
		c.Fail(fmt.Errorf("%w: pipeline %s holds %d in-flight instructions", snap.ErrNotQuiescent, u.name, u.occupancy))
		return
	}
	c.U64(&u.nextIssue)
}

// Snap implements snap.Stateful: collector slots must be empty; the inner
// unit's state follows inline.
func (oc *OperandCollector) Snap(c *snap.Codec) {
	if oc.n != 0 {
		c.Fail(fmt.Errorf("%w: operand collector %s holds %d entries", snap.ErrNotQuiescent, oc.name, oc.n))
		return
	}
	if s, ok := oc.inner.(snap.Stateful); ok {
		s.Snap(c)
	}
}

// Snap implements snap.Stateful: the LD/ST unit has no cross-kernel timing
// state — the walk only checks that no memory instruction is in flight.
func (u *LDSTUnit) Snap(c *snap.Codec) {
	if u.queue.Len() != 0 {
		c.Fail(fmt.Errorf("%w: LD/ST unit %s holds %d instructions", snap.ErrNotQuiescent, u.name, u.queue.Len()))
	}
}

// snap walks the instruction cache through its FIFO order slice, so map
// iteration order never reaches the snapshot bytes.
func (ic *ICache) snap(c *snap.Codec) {
	c.U64(&ic.lastPending)
	snap.Slice(c, &ic.order, 16)
	if c.Loading() {
		if len(ic.order) > ic.capacity {
			c.Failf("icache %s: %d lines exceed capacity %d", ic.name, len(ic.order), ic.capacity)
			return
		}
		ic.lines = make(map[uint64]uint64, len(ic.order))
	}
	for i := 0; i < len(ic.order) && c.Err() == nil; i++ {
		c.U64(&ic.order[i])
		ready, dup := ic.lines[ic.order[i]]
		c.U64(&ready)
		if c.Loading() && dup {
			c.Failf("icache %s: duplicate line %#x", ic.name, ic.order[i])
		} else if c.Loading() {
			ic.lines[ic.order[i]] = ready
		}
	}
}
