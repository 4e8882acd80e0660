package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The .sgt ("Swift GPU trace") text format:
//
//	sgt 1
//	app <name> suite <suite> kernels <n>
//	kernel <name> grid <x,y,z> block <x,y,z> regs <n> shmem <bytes>
//	blocktrace <index>
//	warp <index> insts <n>
//	<pc> <op> <dst> <src0> <src1> <mask-hex> [<addr-hex> ...]
//	...
//	endapp
//
// All integers are decimal except masks and addresses, which are
// unprefixed hexadecimal. Inst.MemIndex is not written: Read numbers the
// memory instructions as it parses them.

// Write serializes app to w in .sgt format.
func Write(w io.Writer, app *App) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintln(bw, "sgt 1")
	fmt.Fprintf(bw, "app %s suite %s kernels %d\n", app.Name, app.Suite, len(app.Kernels))
	for _, k := range app.Kernels {
		fmt.Fprintf(bw, "kernel %s grid %s block %s regs %d shmem %d\n",
			k.Name, k.Grid, k.Block, k.RegsPerThread, k.SharedMemPerBlock)
		for bi := range k.Blocks {
			fmt.Fprintf(bw, "blocktrace %d\n", bi)
			for wi, warp := range k.Blocks[bi].Warps {
				fmt.Fprintf(bw, "warp %d insts %d\n", wi, len(warp))
				for i := range warp {
					writeInst(bw, &warp[i])
				}
			}
		}
	}
	fmt.Fprintln(bw, "endapp")
	return bw.Flush()
}

func writeInst(bw *bufio.Writer, in *Inst) {
	fmt.Fprintf(bw, "%d %s %d %d %d %x", in.PC, in.Op, in.Dst, in.Src[0], in.Src[1], in.ActiveMask)
	for _, a := range in.Addrs {
		fmt.Fprintf(bw, " %x", a)
	}
	bw.WriteByte('\n')
}

// WriteFile serializes app to the file at path. Paths ending in ".gz" are
// gzip-compressed (trace files grow large; compression typically shrinks
// them by an order of magnitude).
func WriteFile(path string, app *App) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := Write(w, app); err != nil {
		f.Close()
		return fmt.Errorf("trace: %s: %w", path, err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return fmt.Errorf("trace: %s: %w", path, err)
		}
	}
	return f.Close()
}

// ReadFile parses the .sgt (or gzip-compressed .sgt.gz) file at path.
func ReadFile(path string) (*App, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	app, err := Read(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return app, nil
}

type sgtReader struct {
	sc    *bufio.Scanner
	line  int
	arena Arena  // the current kernel's
	insts []Inst // scratch for the warp being read, reused across warps
}

func (r *sgtReader) next() (string, bool) {
	for r.sc.Scan() {
		r.line++
		line := strings.TrimSpace(r.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		return line, true
	}
	return "", false
}

func (r *sgtReader) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", r.line, fmt.Sprintf(format, args...))
}

// Read parses a .sgt stream and validates the resulting application.
func Read(rd io.Reader) (*App, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	r := &sgtReader{sc: sc}

	header, ok := r.next()
	if !ok {
		return nil, fmt.Errorf("empty trace")
	}
	if header != "sgt 1" {
		return nil, r.errf("bad header %q, want \"sgt 1\"", header)
	}

	line, ok := r.next()
	if !ok {
		return nil, r.errf("missing app line")
	}
	f := strings.Fields(line)
	if len(f) != 6 || f[0] != "app" || f[2] != "suite" || f[4] != "kernels" {
		return nil, r.errf("malformed app line %q", line)
	}
	nKernels, err := strconv.Atoi(f[5])
	if err != nil || nKernels <= 0 {
		return nil, r.errf("bad kernel count %q", f[5])
	}
	app := &App{Name: f[1], Suite: f[3]}

	for ki := 0; ki < nKernels; ki++ {
		k, err := r.readKernel()
		if err != nil {
			return nil, err
		}
		app.Kernels = append(app.Kernels, k)
	}
	end, ok := r.next()
	if !ok || end != "endapp" {
		return nil, r.errf("missing endapp (got %q)", end)
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

func (r *sgtReader) readKernel() (*Kernel, error) {
	line, ok := r.next()
	if !ok {
		return nil, r.errf("missing kernel line")
	}
	f := strings.Fields(line)
	if len(f) != 10 || f[0] != "kernel" || f[2] != "grid" || f[4] != "block" || f[6] != "regs" || f[8] != "shmem" {
		return nil, r.errf("malformed kernel line %q", line)
	}
	k := &Kernel{Name: f[1]}
	r.arena = Arena{}
	var err error
	if k.Grid, err = parseDim3(f[3]); err != nil {
		return nil, r.errf("grid: %v", err)
	}
	if k.Block, err = parseDim3(f[5]); err != nil {
		return nil, r.errf("block: %v", err)
	}
	if k.RegsPerThread, err = strconv.Atoi(f[7]); err != nil {
		return nil, r.errf("regs: %v", err)
	}
	if k.SharedMemPerBlock, err = strconv.Atoi(f[9]); err != nil {
		return nil, r.errf("shmem: %v", err)
	}

	// Validate the dimensions before deriving any allocation size from
	// them: Grid.Count() is a plain X*Y*Z whose product can overflow int
	// (wrapping to an innocuous-looking value), and a negative or huge
	// block extent would turn WarpsPerBlock into a panic- or OOM-sized
	// make() length. Checking each factor stepwise keeps every
	// intermediate product inside the final bound, so no overflow can
	// occur.
	const maxBlocks = 1 << 22
	if err := checkDim3(k.Grid, maxBlocks); err != nil {
		return nil, r.errf("grid: %v", err)
	}
	if err := checkDim3(k.Block, maxBlockThreads); err != nil {
		return nil, r.errf("block: %v", err)
	}

	nBlocks := k.Grid.Count()
	if nBlocks > maxBlocks {
		return nil, r.errf("unreasonable grid size %d", nBlocks)
	}
	wpb := k.WarpsPerBlock()
	k.Blocks = make([]BlockTrace, nBlocks)
	var next uint32 // MemIndex of the kernel's next memory instruction
	for bi := 0; bi < nBlocks; bi++ {
		line, ok := r.next()
		if !ok {
			return nil, r.errf("missing blocktrace %d", bi)
		}
		bf := strings.Fields(line)
		if len(bf) != 2 || bf[0] != "blocktrace" {
			return nil, r.errf("malformed blocktrace line %q", line)
		}
		if idx, err := strconv.Atoi(bf[1]); err != nil || idx != bi {
			return nil, r.errf("blocktrace index %q, want %d", bf[1], bi)
		}
		k.Blocks[bi].Warps = make([]WarpTrace, wpb)
		for wi := 0; wi < wpb; wi++ {
			warp, err := r.readWarp(wi)
			if err != nil {
				return nil, err
			}
			next = warp.NumberMem(next)
			k.Blocks[bi].Warps[wi] = warp
		}
	}
	return k, nil
}

func (r *sgtReader) readWarp(want int) (WarpTrace, error) {
	line, ok := r.next()
	if !ok {
		return nil, r.errf("missing warp %d header", want)
	}
	f := strings.Fields(line)
	if len(f) != 4 || f[0] != "warp" || f[2] != "insts" {
		return nil, r.errf("malformed warp line %q", line)
	}
	if idx, err := strconv.Atoi(f[1]); err != nil || idx != want {
		return nil, r.errf("warp index %q, want %d", f[1], want)
	}
	n, err := strconv.Atoi(f[3])
	if err != nil || n <= 0 || n > maxWarpInsts {
		return nil, r.errf("bad instruction count %q", f[3])
	}
	// Grow the scratch as instructions actually arrive instead of
	// trusting the declared count: a hostile header claiming maxWarpInsts
	// instructions must not allocate gigabytes before the (truncated)
	// body is read.
	r.insts = r.insts[:0]
	for i := 0; i < n; i++ {
		line, ok := r.next()
		if !ok {
			return nil, r.errf("truncated warp: %d of %d instructions", i, n)
		}
		var in Inst
		if err := parseInst(line, &in, &r.arena); err != nil {
			return nil, r.errf("%v", err)
		}
		r.insts = append(r.insts, in)
	}
	return r.arena.Warp(r.insts), nil
}

// Parser bounds. maxWarpInsts caps one warp's declared instruction count
// (the largest catalog workloads stay well under 1<<20 per warp);
// maxBlockThreads is the CUDA architectural thread-per-block limit.
const (
	maxWarpInsts    = 1 << 20
	maxBlockThreads = 1024
)

// checkDim3 rejects non-positive extents and products above limit without
// ever overflowing: each dimension is bounded before it enters a product,
// and the product is checked stepwise.
func checkDim3(d Dim3, limit int) error {
	for _, v := range []int{d.X, d.Y, d.Z} {
		if v <= 0 || v > limit {
			return fmt.Errorf("dimension %s out of range [1,%d]", d, limit)
		}
	}
	if p := d.X * d.Y; p > limit || p*d.Z > limit {
		return fmt.Errorf("dimension %s: extent exceeds %d", d, limit)
	}
	return nil
}

// parseInst parses one instruction line into in, carving its lane
// addresses from arena.
func parseInst(line string, in *Inst, arena *Arena) error {
	f := strings.Fields(line)
	if len(f) < 6 {
		return fmt.Errorf("malformed instruction %q", line)
	}
	pc, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return fmt.Errorf("pc: %v", err)
	}
	op, err := ParseOpClass(f[1])
	if err != nil {
		return err
	}
	dst, err := parseReg(f[2])
	if err != nil {
		return fmt.Errorf("dst: %v", err)
	}
	s0, err := parseReg(f[3])
	if err != nil {
		return fmt.Errorf("src0: %v", err)
	}
	s1, err := parseReg(f[4])
	if err != nil {
		return fmt.Errorf("src1: %v", err)
	}
	mask, err := strconv.ParseUint(f[5], 16, 32)
	if err != nil {
		return fmt.Errorf("mask: %v", err)
	}
	*in = Inst{PC: pc, Op: op, Dst: dst, Src: [2]Reg{s0, s1}, ActiveMask: uint32(mask)}
	if naddr := len(f) - 6; naddr > 0 {
		in.Addrs = arena.Addrs(naddr)
		for i := 0; i < naddr; i++ {
			a, err := strconv.ParseUint(f[6+i], 16, 64)
			if err != nil {
				return fmt.Errorf("addr %d: %v", i, err)
			}
			in.Addrs[i] = a
		}
	}
	return nil
}

func parseReg(s string) (Reg, error) {
	n, err := strconv.ParseUint(s, 10, 8)
	if err != nil {
		return 0, err
	}
	return Reg(n), nil
}

func parseDim3(s string) (Dim3, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return Dim3{}, fmt.Errorf("bad dim3 %q", s)
	}
	var d Dim3
	for i, dst := range []*int{&d.X, &d.Y, &d.Z} {
		n, err := strconv.Atoi(parts[i])
		if err != nil {
			return Dim3{}, fmt.Errorf("bad dim3 %q: %v", s, err)
		}
		*dst = n
	}
	return d, nil
}
