// Simulation-level checkpointing on top of the engine section
// (internal/engine/snapshot.go, format internal/snap).
//
// A sim snapshot is one snap stream: the header (magic "SSIM" and format
// version) and one checkpoint record, whose walk lists its sections:
//
//	identity app name, kernel count, the GPU configuration as
//	         config.Marshal writes it and Options.Identity — the one
//	         rendering of everything that shapes the timing of the
//	         remainder of the run (options.go says what is in it). Restore
//	         refuses a mismatch with ErrSnapshotMismatch.
//	run pos  next kernel index, per-kernel durations so far and their
//	         extrapolated sum
//	engine   the engine section (engine.Engine.Snap), length-framed so the
//	         record decodes before anything is restored
//	metrics  the gatherer's counters by sorted name
//
// Every kind checkpoints by one rule: the first kernel boundary at or after
// SnapshotAt is the checkpoint (the run's end, for a SnapshotAt in the last
// kernel). No warp is resident there and every read has been answered; the
// stores still draining through the timed L1s, NoC, L2 and DRAM are written
// by value by the modules and the engine's event section that hold them.
package sim

import (
	"errors"
	"fmt"
	"io"

	"swiftsim/internal/config"
	"swiftsim/internal/engine"
	"swiftsim/internal/snap"
	"swiftsim/internal/trace"
)

// ErrSnapshotMismatch reports a checkpoint whose identity section does not
// match the run it is being restored into.
var ErrSnapshotMismatch = errors.New("sim: snapshot does not match this run")

// checkpoint is the record a sim snapshot holds.
type checkpoint struct {
	app, gpu, options string // gpu is config.Marshal's text
	kernels           uint64
	next              uint64 // index of the first kernel not yet simulated
	kernelCycles      []uint64
	extrapolated      uint64
	engine            []byte
	metrics           []counter
}

// counter is one gatherer counter.
type counter struct {
	name  string
	value uint64
}

// walk is the checkpoint's layout: the one list of its sections.
func (ck *checkpoint) walk(c *snap.Codec) {
	c.String(&ck.app)
	c.U64(&ck.kernels)
	c.String(&ck.gpu)
	c.String(&ck.options)

	c.U64(&ck.next)
	snap.Slice(c, &ck.kernelCycles, 8)
	for i := range ck.kernelCycles {
		c.U64(&ck.kernelCycles[i])
	}
	c.U64(&ck.extrapolated)
	if c.Err() == nil && (ck.next > ck.kernels || ck.next != uint64(len(ck.kernelCycles))) {
		c.Failf("resumes at kernel %d of %d but records %d kernel durations", ck.next, ck.kernels, len(ck.kernelCycles))
	}

	c.Bytes(&ck.engine)

	snap.Slice(c, &ck.metrics, 16)
	for i := range ck.metrics {
		c.String(&ck.metrics[i].name)
		c.U64(&ck.metrics[i].value)
	}
}

// writeSnapshot checkpoints the run at the current kernel boundary to
// opts.SnapshotTo, with nextKernel the index of the first kernel not yet
// simulated.
func writeSnapshot(a *gpuAssembly, app *trace.App, gpu config.GPU, opts Options, nextKernel int, kernelCycles []uint64, extrapolated uint64) error {
	eng, err := snap.Save(a.eng.Snap)
	if err != nil {
		return err
	}
	ck := checkpoint{
		app: app.Name, kernels: uint64(len(app.Kernels)), gpu: string(config.Marshal(gpu)), options: opts.Identity(),
		next: uint64(nextKernel), kernelCycles: kernelCycles, extrapolated: extrapolated,
		engine: eng,
	}
	for _, n := range a.g.Names() {
		ck.metrics = append(ck.metrics, counter{n, a.g.Value(n)})
	}
	return snap.WriteStream(opts.SnapshotTo, ck.walk)
}

// readSnapshot restores a freshly assembled simulator from opts.RestoreFrom
// and returns the checkpoint, whose run position says where to resume. The
// identity is checked before the engine section is decoded. Every failure
// is a structured error; on error the assembly must be discarded.
func readSnapshot(a *gpuAssembly, app *trace.App, gpu config.GPU, opts Options) (*checkpoint, error) {
	data, err := io.ReadAll(opts.RestoreFrom)
	if err != nil {
		return nil, err
	}
	var ck checkpoint
	if err := snap.LoadStream(data, ck.walk); err != nil {
		return nil, err
	}
	switch want := opts.Identity(); {
	case ck.app != app.Name:
		return nil, fmt.Errorf("%w: snapshot is of app %q, this run simulates %q", ErrSnapshotMismatch, ck.app, app.Name)
	case ck.kernels != uint64(len(app.Kernels)):
		return nil, fmt.Errorf("%w: snapshot has %d kernels, this run has %d", ErrSnapshotMismatch, ck.kernels, len(app.Kernels))
	case ck.gpu != string(config.Marshal(gpu)):
		return nil, fmt.Errorf("%w: snapshot is for another GPU configuration than this run's %q", ErrSnapshotMismatch, gpu.Name)
	case ck.options != want:
		return nil, fmt.Errorf("%w: snapshot options are %q, this run's are %q", ErrSnapshotMismatch, ck.options, want)
	}
	if err := snap.Load(ck.engine, a.eng.Snap); err != nil {
		return nil, err
	}
	// All names come from a matching assembly (identity checked above), so
	// Set restores the exact counter set of the run.
	for _, m := range ck.metrics {
		a.g.Set(m.name, m.value)
	}
	return &ck, nil
}

// ParseSnapshot structurally validates a checkpoint stream without an
// assembly: it decodes the record and walks the engine section's framing,
// and returns the first structured error (never panics, never
// over-allocates). It is the decoder's fuzzing surface and a cheap
// integrity check before shipping a checkpoint elsewhere.
func ParseSnapshot(data []byte) error {
	var ck checkpoint
	if err := snap.LoadStream(data, ck.walk); err != nil {
		return err
	}
	return snap.Load(ck.engine, engine.ParseState)
}
