package smcore

import (
	"swiftsim/internal/engine"
	"swiftsim/internal/mem"
	"swiftsim/internal/metrics"
	"swiftsim/internal/trace"
)

// Unit is the fixed interface between the Warp Scheduler & Dispatch module
// and every execution resource (§III-B2 of the paper): the scheduler hands
// in an instruction, the unit acknowledges completion by calling done at
// writeback. Both cycle-accurate pipelines and analytical latency models
// implement it, which is what makes Swift-Sim's hybrid assemblies possible.
type Unit interface {
	engine.Module
	// TryIssue attempts to accept in at the given cycle; done is invoked
	// when the instruction's result is written back. It returns false
	// when the unit cannot accept this cycle (issue-port or pipeline
	// contention).
	TryIssue(cycle uint64, in *trace.Inst, done func()) bool
	// Tick advances cycle-accurate unit state (writeback draining);
	// analytical units no-op.
	Tick(cycle uint64)
	// Busy reports whether the unit holds in-flight work that needs
	// per-cycle evaluation. The SM ticks a cycle-accurate unit only while
	// Busy is true (SM.busyUnits): an idle unit's Tick must do nothing, and
	// a unit leaves the idle state only through TryIssue, never from a
	// completion or another unit's tick.
	Busy() bool
}

// pipeSlot is one pipeline register; empty slots hold a nil done.
type pipeSlot struct {
	done func()
}

// ALUPipeline is the cycle-accurate arithmetic unit model: an issue port
// with an initiation interval derived from the lane count, and a pipeline
// register per latency stage that every in-flight instruction passes
// through, one stage per tick — the GPGPU-Sim/Accel-Sim modeling style
// whose per-cycle cost the analytical ALU model of §III-D1 eliminates.
//
// Every occupied register advances on every tick (writeback retires the
// oldest, so the next one is always free), which makes the pipeline a
// delay line: the registers are a ring, and a tick moves its head instead
// of the instructions. An occupied pipeline still reports Busy, so the SM
// holding it is ticked every cycle exactly as before.
type ALUPipeline struct {
	aluClass
	interval  uint64
	nextIssue uint64
	stages    []pipeSlot // stages[(head+i)%len] retires in i+1 ticks
	head      int
	occupancy int
}

// aluClass is what every pipeline of one arithmetic class shares: its name
// and its counters.
type aluClass struct {
	name      string
	issued    *metrics.Counter
	portStall *metrics.Counter
}

func newALUClass(name string, g *metrics.Gatherer) aluClass {
	return aluClass{name: name, issued: g.Counter(name + ".issued"), portStall: g.Counter(name + ".port_stall")}
}

// newALUPipeline builds a pipeline of class c with the given execution
// latency (stage count) and initiation interval (cycles the issue port is
// held per instruction), with registers and an issue port of its own,
// taking it from pipes and its registers from stages. It writes back at
// most one instruction per cycle.
func newALUPipeline(c aluClass, latency, interval int, pipes *mem.Slab[ALUPipeline], stages *mem.Slab[pipeSlot]) *ALUPipeline {
	u := pipes.One()
	*u = ALUPipeline{
		aluClass: c,
		interval: uint64(max(interval, 1)),
		stages:   stages.Take(max(latency, 1)),
	}
	return u
}

// Name implements engine.Module.
func (u *ALUPipeline) Name() string { return u.name }

// Kind implements engine.Module.
func (u *ALUPipeline) Kind() engine.ModelKind { return engine.CycleAccurate }

// Busy implements Unit.
func (u *ALUPipeline) Busy() bool { return u.occupancy > 0 }

// tail is the register an issued instruction enters: the deepest, the one
// the head reaches last.
func (u *ALUPipeline) tail() *pipeSlot {
	i := u.head - 1
	if i < 0 {
		i = len(u.stages) - 1
	}
	return &u.stages[i]
}

// TryIssue implements Unit: place the instruction in the deepest pipeline
// register; it reaches writeback after latency ticks.
func (u *ALUPipeline) TryIssue(cycle uint64, in *trace.Inst, done func()) bool {
	if cycle < u.nextIssue {
		u.portStall.Inc()
		return false
	}
	tail := u.tail()
	if tail.done != nil {
		u.portStall.Inc()
		return false
	}
	u.nextIssue = cycle + u.interval
	u.issued.Inc()
	tail.done = done
	u.occupancy++
	return true
}

// Tick implements Unit: retire the head register, then advance every
// instruction one stage by moving the head. An empty ring has no order to
// keep, so it does nothing.
func (u *ALUPipeline) Tick(cycle uint64) {
	if u.occupancy == 0 {
		return
	}
	if done := u.stages[u.head].done; done != nil {
		u.stages[u.head].done = nil
		u.occupancy--
		done()
	}
	if u.head++; u.head == len(u.stages) {
		u.head = 0
	}
}
