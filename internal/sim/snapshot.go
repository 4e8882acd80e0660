// Simulation-level checkpointing on top of the engine snapshot
// (internal/engine/snapshot.go, format internal/snap).
//
// A sim snapshot is one snap stream:
//
//	header   magic "SSIM" + format version (snap.LoadHeader)
//	identity app name, kernel count, GPU name and Options.Identity — the
//	         one rendering of everything that shapes the timing of the
//	         remainder of the run (options.go says what is in it). Restore
//	         refuses a mismatch with ErrSnapshotMismatch.
//	run pos  next kernel index, per-kernel durations so far, extrapolated
//	         and overhead cycle accumulators
//	engine   one length-framed engine.SaveState payload (scheduler counters
//	         plus every module's positional section)
//	metrics  the gatherer's counters by sorted name
//
// Snapshots are taken only at quiescent kernel boundaries: no scheduled
// events, no busy module, no in-flight memory traffic. Boundaries that are
// not quiescent (for example fire-and-forget stores still draining through
// the cycle-accurate L2/DRAM) are skipped and the next boundary is tried;
// if no quiescent boundary at or after SnapshotAt exists before the run
// ends, the run fails with a structured error rather than silently writing
// nothing.
package sim

import (
	"errors"
	"fmt"
	"io"

	"swiftsim/internal/config"
	"swiftsim/internal/snap"
	"swiftsim/internal/trace"
)

// ErrSnapshotMismatch reports a checkpoint whose identity section does not
// match the run it is being restored into.
var ErrSnapshotMismatch = errors.New("sim: snapshot does not match this run")

// writeSnapshot checkpoints the run at the current kernel boundary, with
// nextKernel the index of the first kernel not yet simulated. It returns
// (false, nil) when the boundary is not quiescent — the caller retries at
// the next boundary — and (true, nil) once the checkpoint has been written
// to opts.SnapshotTo.
func writeSnapshot(a *gpuAssembly, app *trace.App, gpu config.GPU, opts Options, nextKernel int, kernelCycles []uint64, extrapolated, overhead uint64) (bool, error) {
	if !a.eng.Quiescent() {
		return false, nil
	}

	var w snap.Writer
	// Identity section.
	w.String(app.Name)
	w.U64(uint64(len(app.Kernels)))
	w.String(gpu.Name)
	w.String(opts.Identity())

	// Run-position section.
	w.U64(uint64(nextKernel))
	w.U64(uint64(len(kernelCycles)))
	for _, kc := range kernelCycles {
		w.U64(kc)
	}
	w.U64(extrapolated)
	w.U64(overhead)

	// Engine section, length-framed so the stream can be walked without
	// engine knowledge (see ParseSnapshot).
	var ew snap.Writer
	a.eng.SaveState(&ew)
	if err := ew.Err(); err != nil {
		if errors.Is(err, snap.ErrNotQuiescent) {
			// A module still holds in-flight work the engine-level check
			// cannot see; treat like any other non-quiescent boundary.
			return false, nil
		}
		return false, err
	}
	w.Bytes64(ew.Bytes())

	// Metrics section.
	names := a.g.Names()
	w.U64(uint64(len(names)))
	for _, n := range names {
		w.String(n)
		w.U64(a.g.Value(n))
	}

	if _, err := w.WriteTo(opts.SnapshotTo); err != nil {
		return false, err
	}
	return true, nil
}

// resumeState is the run position recovered from a checkpoint.
type resumeState struct {
	nextKernel   int
	kernelCycles []uint64
	extrapolated uint64
	overhead     uint64
}

// readSnapshot restores a freshly assembled simulator from opts.RestoreFrom
// and returns where to resume. Every failure is a structured error; on
// error the assembly must be discarded.
func readSnapshot(a *gpuAssembly, app *trace.App, gpu config.GPU, opts Options) (*resumeState, error) {
	data, err := io.ReadAll(opts.RestoreFrom)
	if err != nil {
		return nil, err
	}
	r, err := snap.LoadHeader(data)
	if err != nil {
		return nil, err
	}

	// Identity section.
	if v := r.String(); r.Err() == nil && v != app.Name {
		return nil, fmt.Errorf("%w: snapshot is of app %q, this run simulates %q", ErrSnapshotMismatch, v, app.Name)
	}
	if v := r.U64(); r.Err() == nil && v != uint64(len(app.Kernels)) {
		return nil, fmt.Errorf("%w: snapshot has %d kernels, this run has %d", ErrSnapshotMismatch, v, len(app.Kernels))
	}
	if v := r.String(); r.Err() == nil && v != gpu.Name {
		return nil, fmt.Errorf("%w: snapshot is for GPU %q, this run uses %q", ErrSnapshotMismatch, v, gpu.Name)
	}
	if v, want := r.String(), opts.Identity(); r.Err() == nil && v != want {
		return nil, fmt.Errorf("%w: snapshot options are %q, this run's are %q", ErrSnapshotMismatch, v, want)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}

	// Run-position section.
	nextKernel := r.U64()
	nkc := r.Count(8)
	kcs := make([]uint64, 0, nkc)
	for i := 0; i < nkc; i++ {
		kcs = append(kcs, r.U64())
	}
	extrapolated := r.U64()
	overhead := r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if nextKernel > uint64(len(app.Kernels)) {
		return nil, fmt.Errorf("%w: snapshot resumes at kernel %d of %d", snap.ErrCorrupt, nextKernel, len(app.Kernels))
	}
	if nextKernel != uint64(nkc) {
		return nil, fmt.Errorf("%w: snapshot resumes at kernel %d but records %d kernel durations", snap.ErrCorrupt, nextKernel, nkc)
	}

	// Engine section.
	er := snap.NewReader(r.BytesN())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if err := a.eng.LoadState(er); err != nil {
		return nil, err
	}
	if er.Remaining() != 0 {
		return nil, fmt.Errorf("%w: engine section has %d trailing bytes", snap.ErrCorrupt, er.Remaining())
	}

	// Metrics section. All names come from a matching assembly (identity
	// checked above), so Set restores the exact counter set of the run.
	nm := r.Count(16)
	for i := 0; i < nm; i++ {
		name := r.String()
		val := r.U64()
		if r.Err() != nil {
			break
		}
		a.g.Set(name, val)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after the snapshot", snap.ErrCorrupt, r.Remaining())
	}
	return &resumeState{
		nextKernel:   int(nextKernel),
		kernelCycles: kcs,
		extrapolated: extrapolated,
		overhead:     overhead,
	}, nil
}

// ParseSnapshot structurally validates a checkpoint stream without an
// assembly: it walks every section and every framing field and returns the
// first structured error (never panics, never over-allocates). It is the
// decoder's fuzzing surface and a cheap integrity check before shipping a
// checkpoint elsewhere.
func ParseSnapshot(data []byte) error {
	r, err := snap.LoadHeader(data)
	if err != nil {
		return err
	}

	// Identity section.
	_ = r.String() // app name
	r.U64()        // kernel count
	_ = r.String() // GPU name
	_ = r.String() // options identity

	// Run-position section.
	next := r.U64()
	nkc := r.Count(8)
	for i := 0; i < nkc; i++ {
		r.U64()
	}
	r.U64() // extrapolated
	r.U64() // overhead
	if err := r.Err(); err != nil {
		return err
	}
	if next != uint64(nkc) {
		return fmt.Errorf("%w: resumes at kernel %d but records %d kernel durations", snap.ErrCorrupt, next, nkc)
	}

	// Engine section: scheduler counters plus name/payload module frames.
	er := snap.NewReader(r.BytesN())
	if err := r.Err(); err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		er.U64()
	}
	nMod := er.Count(16)
	for i := 0; i < nMod; i++ {
		_ = er.String()
		er.BytesN()
		if err := er.Err(); err != nil {
			return fmt.Errorf("module section %d: %w", i, err)
		}
	}
	if err := er.Err(); err != nil {
		return err
	}
	if er.Remaining() != 0 {
		return fmt.Errorf("%w: engine section has %d trailing bytes", snap.ErrCorrupt, er.Remaining())
	}

	// Metrics section.
	nm := r.Count(16)
	for i := 0; i < nm; i++ {
		_ = r.String()
		r.U64()
	}
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after the snapshot", snap.ErrCorrupt, r.Remaining())
	}
	return nil
}
