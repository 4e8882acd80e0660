package snap

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// fields is a layout with one field of every primitive, walked by walk.
type fields struct {
	zero, max uint64
	u32       uint32
	i         int
	t, f      bool
	half, inf float64
	s, empty  string
	b, none   []byte
	list      []uint64
}

func (x *fields) walk(c *Codec) {
	c.U64(&x.zero)
	c.U64(&x.max)
	c.U32(&x.u32)
	c.Int(&x.i)
	c.Bool(&x.t)
	c.Bool(&x.f)
	c.F64(&x.half)
	c.F64(&x.inf)
	c.String(&x.s)
	c.String(&x.empty)
	c.Bytes(&x.b)
	c.Bytes(&x.none)
	Slice(c, &x.list, 8)
	for i := range x.list {
		c.U64(&x.list[i])
	}
}

// TestCodecRoundTrip pins every primitive through a full WriteStream,
// LoadStream cycle of one walk.
func TestCodecRoundTrip(t *testing.T) {
	want := fields{max: math.MaxUint64, u32: 7, i: -3, t: true, half: 3.5, inf: math.Inf(-1),
		s: "hello", b: []byte{1, 2, 3}, list: []uint64{4, 5}}
	var buf bytes.Buffer
	if err := WriteStream(&buf, want.walk); err != nil {
		t.Fatal(err)
	}
	var got fields
	if err := LoadStream(buf.Bytes(), got.walk); err != nil {
		t.Fatal(err)
	}
	if got.zero != 0 || got.max != want.max || got.u32 != 7 || got.i != -3 || !got.t || got.f ||
		got.half != 3.5 || !math.IsInf(got.inf, -1) || got.s != "hello" || got.empty != "" ||
		!bytes.Equal(got.b, want.b) || len(got.none) != 0 || len(got.list) != 2 || got.list[1] != 5 {
		t.Errorf("loaded %+v, saved %+v", got, want)
	}
	if err := Load(append(buf.Bytes()[8:], 0), got.walk); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing byte: %v, want ErrCorrupt", err)
	}
}

// TestCodecTruncation pins the sticky ErrTruncated contract: a read past the
// end fails once, leaves its field alone, and every later read keeps the
// first error.
func TestCodecTruncation(t *testing.T) {
	x := uint64(42)
	payload, err := Save(func(c *Codec) { c.U64(&x) })
	if err != nil {
		t.Fatal(err)
	}
	var a, b uint64
	var s string
	err = Load(payload, func(c *Codec) {
		c.U64(&a)
		c.U64(&b)
		if !errors.Is(c.Err(), ErrTruncated) {
			t.Errorf("Err() = %v, want ErrTruncated", c.Err())
		}
		c.String(&s)
	})
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("Load = %v, want ErrTruncated", err)
	}
	if a != 42 || b != 0 {
		t.Errorf("read %d, %d; want 42 and the untouched 0", a, b)
	}
}

// TestLoadHeaderRejects pins the header validation: short input, a wrong
// magic and a future version all fail with the right sentinel.
func TestLoadHeaderRejects(t *testing.T) {
	nop := func(*Codec) {}
	if err := LoadStream(nil, nop); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty: %v, want ErrTruncated", err)
	}
	if err := LoadStream([]byte("SS"), nop); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v, want ErrTruncated", err)
	}
	if err := LoadStream([]byte("XXXX\x01\x00\x00\x00"), nop); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: %v, want ErrCorrupt", err)
	}
	if err := LoadStream([]byte("SSIM\xff\x00\x00\x00"), nop); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: %v, want ErrVersion", err)
	}
}

// TestCountCapsAllocation pins the attacker-controlled-length guard: a count
// field far beyond the remaining payload fails instead of allocating.
func TestCountCapsAllocation(t *testing.T) {
	huge := uint64(math.MaxUint64)
	payload, _ := Save(func(c *Codec) { c.U64(&huge) })
	var list []uint64
	err := Load(payload, func(c *Codec) { Slice(c, &list, 16) })
	if !errors.Is(err, ErrCorrupt) || list != nil {
		t.Errorf("absurd count: %v with %d elements, want ErrCorrupt and none", err, len(list))
	}
}

// TestFailSticky pins Fail: once failed, a saving walk writes nothing more
// and the stream is refused.
func TestFailSticky(t *testing.T) {
	wantErr := errors.New("boom")
	walk := func(c *Codec) {
		one, two := uint64(1), uint64(2)
		c.U64(&one)
		c.Fail(wantErr)
		c.Fail(errors.New("later"))
		c.U64(&two)
	}
	if payload, err := Save(walk); !errors.Is(err, wantErr) || len(payload) != 8 {
		t.Errorf("Save = %d bytes, %v; want 8 bytes and boom", len(payload), err)
	}
	var buf bytes.Buffer
	if err := WriteStream(&buf, walk); !errors.Is(err, wantErr) {
		t.Errorf("WriteStream = %v, want boom", err)
	}
	if buf.Len() != 0 {
		t.Errorf("WriteStream emitted %d bytes after Fail", buf.Len())
	}
}

// TestMatchAndHasRefuseDisagreement: a loaded count or presence flag that
// disagrees with the assembly is ErrCorrupt, and the walk reports it so the
// caller does not walk the part.
func TestMatchAndHasRefuseDisagreement(t *testing.T) {
	payload, _ := Save(func(c *Codec) {
		c.Match(3, 0, "lines")
		c.Has(true, "meter")
	})
	for _, tc := range []struct {
		name string
		walk func(c *Codec) bool
	}{
		{"count", func(c *Codec) bool { return c.Match(4, 0, "lines") }},
		{"presence", func(c *Codec) bool { return c.Match(3, 0, "lines") && c.Has(false, "meter") }},
	} {
		sound := true
		err := Load(payload, func(c *Codec) { sound = tc.walk(c) })
		if sound || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: sound %v, %v; want false and ErrCorrupt", tc.name, sound, err)
		}
	}
	if err := Load(payload, func(c *Codec) {
		if !c.Match(3, 0, "lines") || !c.Has(true, "meter") {
			t.Error("an agreeing stream was refused")
		}
	}); err != nil {
		t.Error(err)
	}
}

// TestFrame: a frame's body loads exactly its own bytes, a nil body skips
// them, a body that leaves bytes unread is ErrCorrupt, and a body's error
// names the frame.
func TestFrame(t *testing.T) {
	x, y := uint64(5), uint64(6)
	frames := func(name string, body func(*Codec)) func(*Codec) {
		return func(c *Codec) {
			c.Frame(&name, body)
			c.U64(&y)
		}
	}
	payload, err := Save(frames("a", func(c *Codec) { c.U64(&x) }))
	if err != nil {
		t.Fatal(err)
	}
	var name string
	var gotX, gotY uint64
	if err := Load(payload, func(c *Codec) {
		c.Frame(&name, func(c *Codec) { c.U64(&gotX) })
		c.U64(&gotY)
	}); err != nil || name != "a" || gotX != 5 || gotY != 6 {
		t.Errorf("loaded %q %d %d, %v", name, gotX, gotY, err)
	}
	gotY = 0
	if err := Load(payload, func(c *Codec) { c.Frame(&name, nil); c.U64(&gotY) }); err != nil || gotY != 6 {
		t.Errorf("skipped frame: %d, %v", gotY, err)
	}
	if err := Load(payload, frames("", func(*Codec) {})); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unread frame bytes: %v, want ErrCorrupt", err)
	}
	_, err = Save(frames("busy", func(c *Codec) { c.Fail(ErrNotQuiescent) }))
	if !errors.Is(err, ErrNotQuiescent) || !bytes.Contains([]byte(err.Error()), []byte(`"busy"`)) {
		t.Errorf("frame error = %v, want ErrNotQuiescent naming the frame", err)
	}
}
