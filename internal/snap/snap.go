// Package snap implements Swift-Sim's versioned binary snapshot format:
// a little-endian, length-prefixed encoding used to serialize engine and
// module state at the first kernel boundary at or after a chosen cycle, so
// runs can be checkpointed, resumed, and fanned out across configurations.
//
// A state layout is written once, as a walk over a Codec. The walk names
// each field by a pointer, so the same walk saves (appends every field) and
// loads (overwrites every field), and the two directions cannot disagree
// about the field sequence. Geometry the assembly fixes goes through Match
// and optional parts through Has: saving writes the assembly's value, and
// loading refuses a stream that disagrees with it.
//
// The package is dependency-free by design — every simulated-hardware
// package (engine, smcore, cache, noc, dram, analytic) implements
// Stateful against it without import cycles. Loading is hardened for
// untrusted input: the Codec carries a sticky error, every allocation is
// capped by the bytes actually remaining, and all failures are structured
// errors (never panics) so a corrupt checkpoint file degrades into a
// clean "cannot restore" result.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Magic identifies a Swift-Sim snapshot stream.
const Magic = "SSIM"

// Version is the current snapshot format version. Bump on any
// incompatible layout change; LoadStream rejects mismatches with
// ErrVersion so a skewed binary never misparses old state as new.
const Version uint32 = 4

// ErrCorrupt reports structurally invalid snapshot data.
var ErrCorrupt = errors.New("snap: corrupt snapshot")

// ErrTruncated reports snapshot data that ends mid-field.
var ErrTruncated = errors.New("snap: truncated snapshot")

// ErrVersion reports a snapshot written by an incompatible format version.
var ErrVersion = errors.New("snap: unsupported snapshot version")

// ErrNotQuiescent reports an attempt to snapshot in-flight work that no
// checkpoint layout holds: a resident warp, an occupied pipeline, a memory
// request somebody waits for. None of it is left at a kernel boundary, so
// this error means a checkpoint was attempted mid-kernel.
var ErrNotQuiescent = errors.New("snap: module not quiescent")

// Stateful is a module whose simulation state can be serialized into a
// snapshot and restored from one. The engine frames each module's state
// with its name and length, so a mismatch is detected, not silently
// misread.
type Stateful interface {
	// Snap walks the module's state. Saving happens at a kernel boundary;
	// a module that finds work its layout does not hold fails c with
	// ErrNotQuiescent. Loading runs on a module that was just assembled, so
	// every field the walk does not name keeps its initial value.
	Snap(c *Codec)
}

// Codec walks a state layout in one direction: saving appends each field
// to a buffer, loading overwrites each field from one. Its error is
// sticky: after the first failure every method does nothing, so a walk
// stays linear and its caller checks Err (Save and Load do) at the end.
type Codec struct {
	buf     []byte
	pos     int // loading: offset of the next unread byte
	loading bool
	err     error
}

// Save walks in the saving direction and returns the payload, or the first
// error the walk recorded.
func Save(walk func(*Codec)) ([]byte, error) {
	var c Codec
	walk(&c)
	return c.buf, c.err
}

// Load walks payload b in the loading direction and returns the first
// error; bytes the walk leaves unread are ErrCorrupt.
func Load(b []byte, walk func(*Codec)) error {
	c := Codec{buf: b, loading: true}
	walk(&c)
	if c.err == nil && c.pos != len(b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-c.pos)
	}
	return c.err
}

// WriteStream writes the magic, the format version and walk's payload to
// out.
func WriteStream(out io.Writer, walk func(*Codec)) error {
	c := Codec{buf: binary.LittleEndian.AppendUint32([]byte(Magic), Version)}
	walk(&c)
	if c.err != nil {
		return c.err
	}
	_, err := out.Write(c.buf)
	return err
}

// LoadStream validates the magic and version of a full snapshot stream and
// Loads its payload.
func LoadStream(data []byte, walk func(*Codec)) error {
	if len(data) < 8 {
		return fmt.Errorf("%w: %d-byte stream is shorter than the header", ErrTruncated, len(data))
	}
	if string(data[:4]) != Magic {
		return fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != Version {
		return fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrVersion, v, Version)
	}
	return Load(data[8:], walk)
}

// Loading reports the direction: true when the walk overwrites fields from
// a stream, false when it appends them to one.
func (c *Codec) Loading() bool { return c.loading }

// Err returns the sticky error, if any.
func (c *Codec) Err() error { return c.err }

// Fail records an error; the first one sticks.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Failf records a formatted ErrCorrupt, for a stream that breaks an
// invariant of the assembly (for example a count past its geometry).
func (c *Codec) Failf(format string, args ...any) {
	c.Fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// take returns the next n unread bytes, or nil once the walk has failed or
// after recording that the stream ends before them.
func (c *Codec) take(n int, what string) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.buf)-c.pos < n {
		c.Fail(fmt.Errorf("%w: %s at offset %d", ErrTruncated, what, c.pos))
		return nil
	}
	c.pos += n
	return c.buf[c.pos-n : c.pos]
}

// U64 walks a fixed-width little-endian uint64.
func (c *Codec) U64(p *uint64) {
	switch {
	case c.err != nil:
	case !c.loading:
		c.buf = binary.LittleEndian.AppendUint64(c.buf, *p)
	default:
		if b := c.take(8, "u64"); b != nil {
			*p = binary.LittleEndian.Uint64(b)
		}
	}
}

// U32 walks a fixed-width little-endian uint32.
func (c *Codec) U32(p *uint32) {
	switch {
	case c.err != nil:
	case !c.loading:
		c.buf = binary.LittleEndian.AppendUint32(c.buf, *p)
	default:
		if b := c.take(4, "u32"); b != nil {
			*p = binary.LittleEndian.Uint32(b)
		}
	}
}

// Int walks an int as a uint64.
func (c *Codec) Int(p *int) {
	v := uint64(*p)
	c.U64(&v)
	*p = int(v)
}

// F64 walks a float64 by its IEEE-754 bits.
func (c *Codec) F64(p *float64) {
	v := math.Float64bits(*p)
	c.U64(&v)
	*p = math.Float64frombits(v)
}

// Bool walks a bool as one byte; loading any value other than 0 or 1 is
// corrupt.
func (c *Codec) Bool(p *bool) {
	var v byte
	if *p {
		v = 1
	}
	switch {
	case c.err != nil:
	case !c.loading:
		c.buf = append(c.buf, v)
	default:
		b := c.take(1, "bool")
		if b != nil && b[0] > 1 {
			c.Fail(fmt.Errorf("%w: bool byte 0x%02x at offset %d", ErrCorrupt, b[0], c.pos-1))
		} else if b != nil {
			*p = b[0] == 1
		}
	}
}

// Count walks an element count. elemBytes is the least number of bytes one
// element takes in the stream: loading refuses a count the remaining bytes
// cannot hold, so a corrupt count can never trigger a huge allocation.
// Zero elemBytes refuses no count; use it only where nothing is allocated
// by the count.
func (c *Codec) Count(n *int, elemBytes int) {
	v := uint64(*n)
	c.U64(&v)
	if !c.loading || c.err != nil {
		return
	}
	if rem := uint64(len(c.buf) - c.pos); elemBytes > 0 && v > rem/uint64(elemBytes) {
		c.Fail(fmt.Errorf("%w: count %d × %dB exceeds %d remaining bytes", ErrCorrupt, v, elemBytes, rem))
		return
	}
	*n = int(v)
}

// Slice walks the length of *s as Count does and, when loading, makes *s
// that long; the caller then walks the elements.
func Slice[T any](c *Codec, s *[]T, elemBytes int) {
	n := len(*s)
	c.Count(&n, elemBytes)
	if c.loading && c.err == nil {
		*s = make([]T, n)
	}
}

// Match walks a count the assembly fixes, such as a tag array's lines:
// saving writes n, loading fails with ErrCorrupt unless the stream's count
// is n. It reports whether the walk is still sound.
func (c *Codec) Match(n, elemBytes int, what string) bool {
	got := n
	c.Count(&got, elemBytes)
	if c.err == nil && got != n {
		c.Failf("%s: snapshot has %d, assembly has %d", what, got, n)
	}
	return c.err == nil
}

// Empty walks the size of a part that holds nothing at a kernel boundary,
// such as a queue of requests somebody waits for: saving fails with
// ErrNotQuiescent unless n is 0, and loading refuses any other count.
func (c *Codec) Empty(n int, what string) {
	if !c.loading && n != 0 {
		c.Fail(fmt.Errorf("%w: %s holds %d", ErrNotQuiescent, what, n))
		return
	}
	c.Match(0, 0, what)
}

// Has walks whether an optional part is present, as Match walks a count: it
// reports whether to walk the part.
func (c *Codec) Has(present bool, what string) bool {
	got := present
	c.Bool(&got)
	if c.err == nil && got != present {
		c.Failf("%s: presence mismatch", what)
	}
	return present && c.err == nil
}

// String walks a length-prefixed UTF-8 string.
func (c *Codec) String(p *string) {
	n := len(*p)
	c.Count(&n, 1)
	switch {
	case c.err != nil:
	case !c.loading:
		c.buf = append(c.buf, *p...)
	default:
		*p = string(c.take(n, "string"))
	}
}

// Bytes walks a length-prefixed byte slice. Loading aliases the stream.
func (c *Codec) Bytes(p *[]byte) {
	n := len(*p)
	c.Count(&n, 1)
	switch {
	case c.err != nil:
	case !c.loading:
		c.buf = append(c.buf, *p...)
	default:
		*p = c.take(n, "bytes")
	}
}

// Frame walks a named, length-framed section: the name, then body's
// payload behind its byte length. Loading reads the stream's name into
// *name before body runs over exactly the framed bytes, so body can check
// it; bytes body leaves unread are ErrCorrupt. A nil body saves an empty
// frame and, loading, skips the payload unread.
func (c *Codec) Frame(name *string, body func(*Codec)) {
	c.String(name)
	var payload []byte
	var err error
	if !c.loading && body != nil && c.err == nil {
		payload, err = Save(body)
	}
	c.Bytes(&payload)
	if c.loading && body != nil && c.err == nil {
		err = Load(payload, body)
	}
	if err != nil {
		c.Fail(fmt.Errorf("section %q: %w", *name, err))
	}
}
