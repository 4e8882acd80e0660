package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
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
	// Each line is formatted into line and written whole: formatting
	// through fmt would box every value, one allocation per lane.
	var line []byte
	for _, k := range app.Kernels {
		fmt.Fprintf(bw, "kernel %s grid %s block %s regs %d shmem %d\n",
			k.Name, k.Grid, k.Block, k.RegsPerThread, k.SharedMemPerBlock)
		for bi := range k.Blocks {
			line = strconv.AppendInt(append(line[:0], "blocktrace "...), int64(bi), 10)
			bw.Write(append(line, '\n'))
			for wi, warp := range k.Blocks[bi].Warps {
				line = strconv.AppendInt(append(line[:0], "warp "...), int64(wi), 10)
				line = strconv.AppendInt(append(line, " insts "...), int64(len(warp)), 10)
				bw.Write(append(line, '\n'))
				for i := range warp {
					line = appendInst(line[:0], &warp[i])
					bw.Write(line)
				}
			}
		}
	}
	fmt.Fprintln(bw, "endapp")
	return bw.Flush()
}

// appendInst appends in's line, with every lane's address listed.
func appendInst(b []byte, in *Inst) []byte {
	b = strconv.AppendUint(b, in.PC, 10)
	b = append(append(b, ' '), in.Op.String()...)
	for _, r := range [...]Reg{in.Dst, in.Src[0], in.Src[1]} {
		b = strconv.AppendUint(append(b, ' '), uint64(r), 10)
	}
	b = strconv.AppendUint(append(b, ' '), uint64(in.ActiveMask), 16)
	var lanes [WarpSize]uint64
	for _, a := range in.Lanes(&lanes) {
		b = strconv.AppendUint(append(b, ' '), a, 16)
	}
	return append(b, '\n')
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

// sgtReader reads a .sgt stream line by line. It parses each line in the
// scanner's own buffer, split into fields it reuses, so that reading an
// instruction allocates nothing beyond its share of the kernel's arena.
type sgtReader struct {
	sc     *bufio.Scanner
	line   int
	fields [][]byte // the current line's, valid until the next line is read
	arena  Arena    // the app's, shared by its kernels
	insts  []Inst   // scratch for the warp being read, reused across warps
	lanes  [WarpSize]uint64
}

// next reads the next line that is neither blank nor a comment, splits it
// into r.fields and returns it.
func (r *sgtReader) next() ([]byte, bool) {
	for r.sc.Scan() {
		r.line++
		line := bytes.TrimSpace(r.sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		r.fields = appendFields(r.fields[:0], line)
		return line, true
	}
	return nil, false
}

// appendFields appends the fields of line to dst, split where
// strings.Fields splits: around each run of Unicode white space.
func appendFields(dst [][]byte, line []byte) [][]byte {
	start := -1
	for i := 0; i < len(line); {
		c, size := rune(line[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRune(line[i:])
		}
		if unicode.IsSpace(c) {
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// is reports whether the current line has n fields whose even-indexed ones
// (counted from 0) are the keywords kw.
func (r *sgtReader) is(n int, kw ...string) bool {
	if len(r.fields) != n {
		return false
	}
	for i, k := range kw {
		if string(r.fields[2*i]) != k {
			return false
		}
	}
	return true
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
	if string(header) != "sgt 1" {
		return nil, r.errf("bad header %q, want \"sgt 1\"", header)
	}

	line, ok := r.next()
	if !ok {
		return nil, r.errf("missing app line")
	}
	if !r.is(6, "app", "suite", "kernels") {
		return nil, r.errf("malformed app line %q", line)
	}
	f := r.fields
	nKernels, err := strconv.Atoi(string(f[5]))
	if err != nil || nKernels <= 0 {
		return nil, r.errf("bad kernel count %q", f[5])
	}
	app := &App{Name: string(f[1]), Suite: string(f[3])}

	for ki := 0; ki < nKernels; ki++ {
		k, err := r.readKernel()
		if err != nil {
			return nil, err
		}
		app.Kernels = append(app.Kernels, k)
	}
	end, ok := r.next()
	if !ok || string(end) != "endapp" {
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
	if !r.is(10, "kernel", "grid", "block", "regs", "shmem") {
		return nil, r.errf("malformed kernel line %q", line)
	}
	f := r.fields
	k := &Kernel{Name: string(f[1])}
	var err error
	if k.Grid, err = parseDim3(string(f[3])); err != nil {
		return nil, r.errf("grid: %v", err)
	}
	if k.Block, err = parseDim3(string(f[5])); err != nil {
		return nil, r.errf("block: %v", err)
	}
	if k.RegsPerThread, err = strconv.Atoi(string(f[7])); err != nil {
		return nil, r.errf("regs: %v", err)
	}
	if k.SharedMemPerBlock, err = strconv.Atoi(string(f[9])); err != nil {
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
		if !r.is(2, "blocktrace") {
			return nil, r.errf("malformed blocktrace line %q", line)
		}
		if idx, err := strconv.Atoi(string(r.fields[1])); err != nil || idx != bi {
			return nil, r.errf("blocktrace index %q, want %d", r.fields[1], bi)
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
	if !r.is(4, "warp", "insts") {
		return nil, r.errf("malformed warp line %q", line)
	}
	f := r.fields
	if idx, err := strconv.Atoi(string(f[1])); err != nil || idx != want {
		return nil, r.errf("warp index %q, want %d", f[1], want)
	}
	n, err := strconv.Atoi(string(f[3]))
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
		if err := r.parseInst(line, &in); err != nil {
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

// parseInst parses the instruction line in r.fields into in, committing
// its lane addresses to the kernel's arena.
func (r *sgtReader) parseInst(line []byte, in *Inst) error {
	f := r.fields
	if len(f) < 6 {
		return fmt.Errorf("malformed instruction %q", line)
	}
	pc, err := strconv.ParseUint(string(f[0]), 10, 64)
	if err != nil {
		return fmt.Errorf("pc: %v", err)
	}
	op, ok := opClassOf(f[1])
	if !ok {
		return fmt.Errorf("trace: unknown opcode class %q", f[1])
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
	mask, err := strconv.ParseUint(string(f[5]), 16, 32)
	if err != nil {
		return fmt.Errorf("mask: %v", err)
	}
	*in = Inst{PC: pc, Op: op, Dst: dst, Src: [2]Reg{s0, s1}, ActiveMask: uint32(mask)}
	naddr := len(f) - 6
	if naddr == 0 {
		return nil
	}
	// A line lists every active lane's address; one that lists fewer
	// must not pass for a strided instruction.
	if naddr != in.ActiveLanes() {
		return fmt.Errorf("%d addresses for %d active lanes", naddr, in.ActiveLanes())
	}
	for i, a := range f[6:] {
		if r.lanes[i], err = strconv.ParseUint(string(a), 16, 64); err != nil {
			return fmt.Errorf("addr %d: %v", i, err)
		}
	}
	r.arena.SetLanes(in, r.lanes[:naddr])
	return nil
}

func parseReg(b []byte) (Reg, error) {
	n, err := strconv.ParseUint(string(b), 10, 8)
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
