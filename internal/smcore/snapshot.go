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

// SnapSave implements snap.Stateful.
func (sm *SM) SnapSave(w *snap.Writer) {
	if len(sm.blocks) != 0 || sm.usedWarps != 0 || sm.usedRegs != 0 || sm.usedShmem != 0 || sm.busyCache {
		w.Fail(fmt.Errorf("%w: SM%d has %d resident blocks", snap.ErrNotQuiescent, sm.id, len(sm.blocks)))
		return
	}
	w.U64(sm.nextAge)
	w.U64(sm.lastCycle)
	w.U64(sm.accounted)
	w.U64(uint64(len(sm.subcores)))
	for _, sc := range sm.subcores {
		for _, warp := range sc.warps {
			if warp != nil {
				w.Fail(fmt.Errorf("%w: SM%d sub-core %d holds a warp", snap.ErrNotQuiescent, sm.id, sc.index))
				return
			}
		}
		w.U64(uint64(sc.cursor))
		w.U64(uint64(sc.fetchCursor))
		w.U64(sc.epoch)
		w.Bool(sc.icache != nil)
		if sc.icache != nil {
			sc.icache.snapSave(w)
		}
	}
	w.U64(uint64(len(sm.unitList)))
	for _, u := range sm.unitList {
		if s, ok := u.(snap.Stateful); ok {
			s.SnapSave(w)
		}
	}
}

// SnapLoad implements snap.Stateful.
func (sm *SM) SnapLoad(r *snap.Reader) error {
	sm.nextAge = r.U64()
	sm.lastCycle = r.U64()
	sm.accounted = r.U64()
	if n := r.U64(); n != uint64(len(sm.subcores)) {
		r.Failf("SM%d: snapshot has %d sub-cores, assembly has %d", sm.id, n, len(sm.subcores))
		return r.Err()
	}
	for _, sc := range sm.subcores {
		sc.cursor = int(r.U64())
		sc.fetchCursor = int(r.U64())
		sc.epoch = r.U64()
		if has := r.Bool(); has != (sc.icache != nil) {
			r.Failf("SM%d sub-core %d: instruction-cache presence mismatch", sm.id, sc.index)
			return r.Err()
		}
		if sc.icache != nil {
			if err := sc.icache.snapLoad(r); err != nil {
				return err
			}
		}
	}
	if n := r.U64(); n != uint64(len(sm.unitList)) {
		r.Failf("SM%d: snapshot has %d units, assembly has %d", sm.id, n, len(sm.unitList))
		return r.Err()
	}
	for _, u := range sm.unitList {
		if s, ok := u.(snap.Stateful); ok {
			if err := s.SnapLoad(r); err != nil {
				return err
			}
		}
	}
	return r.Err()
}

// SnapSave implements snap.Stateful. The cursor (round-robin start SM) is
// the scheduler's only cross-kernel state; launch bookkeeping is reset by
// LaunchKernel.
func (bs *BlockScheduler) SnapSave(w *snap.Writer) {
	if !bs.KernelDone() {
		w.Fail(fmt.Errorf("%w: block scheduler mid-kernel (%d/%d blocks)", snap.ErrNotQuiescent,
			bs.done, len(bs.kernel.Blocks)))
		return
	}
	w.U64(uint64(bs.cursor))
}

// SnapLoad implements snap.Stateful.
func (bs *BlockScheduler) SnapLoad(r *snap.Reader) error {
	cursor := r.U64()
	if len(bs.sms) > 0 && cursor >= uint64(len(bs.sms)) {
		r.Failf("block scheduler cursor %d out of range for %d SMs", cursor, len(bs.sms))
		return r.Err()
	}
	bs.cursor = int(cursor)
	return r.Err()
}

// SnapSave implements snap.Stateful: the pipeline registers must be empty
// at a quiescent point; only the issue port's next-free cycle persists.
func (u *ALUPipeline) SnapSave(w *snap.Writer) {
	if u.occupancy != 0 {
		w.Fail(fmt.Errorf("%w: pipeline %s holds %d in-flight instructions", snap.ErrNotQuiescent, u.name, u.occupancy))
		return
	}
	w.U64(u.nextIssue)
}

// SnapLoad implements snap.Stateful.
func (u *ALUPipeline) SnapLoad(r *snap.Reader) error {
	u.nextIssue = r.U64()
	return r.Err()
}

// SnapSave implements snap.Stateful: collector slots must be empty; the
// inner unit's state follows inline.
func (oc *OperandCollector) SnapSave(w *snap.Writer) {
	if len(oc.queue) != 0 {
		w.Fail(fmt.Errorf("%w: operand collector %s holds %d entries", snap.ErrNotQuiescent, oc.name, len(oc.queue)))
		return
	}
	if s, ok := oc.inner.(snap.Stateful); ok {
		s.SnapSave(w)
	}
}

// SnapLoad implements snap.Stateful.
func (oc *OperandCollector) SnapLoad(r *snap.Reader) error {
	if s, ok := oc.inner.(snap.Stateful); ok {
		return s.SnapLoad(r)
	}
	return r.Err()
}

// SnapSave implements snap.Stateful: the LD/ST unit has no cross-kernel
// timing state — it only checks that no memory instruction is in flight.
func (u *LDSTUnit) SnapSave(w *snap.Writer) {
	if u.queue.Len() != 0 {
		w.Fail(fmt.Errorf("%w: LD/ST unit %s holds %d instructions", snap.ErrNotQuiescent, u.name, u.queue.Len()))
	}
}

// SnapLoad implements snap.Stateful.
func (u *LDSTUnit) SnapLoad(r *snap.Reader) error { return r.Err() }

// snapSave serializes the instruction cache deterministically via its FIFO
// order slice (map iteration order must never reach the snapshot bytes).
func (ic *ICache) snapSave(w *snap.Writer) {
	w.U64(ic.lastPending)
	w.U64(uint64(len(ic.order)))
	for _, line := range ic.order {
		w.U64(line)
		w.U64(ic.lines[line])
	}
}

// snapLoad restores the instruction cache's lines and FIFO order.
func (ic *ICache) snapLoad(r *snap.Reader) error {
	ic.lastPending = r.U64()
	n := r.Count(16)
	if n > ic.capacity {
		r.Failf("icache %s: %d lines exceed capacity %d", ic.name, n, ic.capacity)
		return r.Err()
	}
	ic.lines = make(map[uint64]uint64, n)
	ic.order = ic.order[:0]
	for i := 0; i < n; i++ {
		line := r.U64()
		ready := r.U64()
		if r.Err() != nil {
			return r.Err()
		}
		if _, dup := ic.lines[line]; dup {
			r.Failf("icache %s: duplicate line %#x", ic.name, line)
			return r.Err()
		}
		ic.lines[line] = ready
		ic.order = append(ic.order, line)
	}
	return r.Err()
}
