package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

func TestParseLevel(t *testing.T) {
	cases := []struct {
		in   string
		want Level
		err  bool
	}{
		{"off", Off, false},
		{"", Off, false},
		{"kernel", KernelLevel, false},
		{"Module", ModuleLevel, false},
		{" request ", RequestLevel, false},
		{"verbose", Off, true},
	}
	for _, c := range cases {
		got, err := ParseLevel(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseLevel(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if got != c.want {
			t.Errorf("ParseLevel(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, l := range []Level{Off, KernelLevel, ModuleLevel, RequestLevel} {
		back, err := ParseLevel(l.String())
		if err != nil || back != l {
			t.Errorf("round trip %v -> %q -> %v, err %v", l, l.String(), back, err)
		}
	}
}

func TestTracerLevelFiltering(t *testing.T) {
	var nilT *Tracer
	if nilT.Enabled(KernelLevel) {
		t.Fatal("nil tracer must be disabled at every level")
	}
	if nilT.Level() != Off || nilT.Pid() != 0 {
		t.Fatal("nil tracer accessors")
	}
	// Nil-safe emission paths must not panic.
	nilT.Emit(Event{Name: "x"})
	nilT.Span(KernelLevel, "c", "n", 0, 0, 1)
	nilT.Instant(KernelLevel, "c", "n", 0, 0)
	nilT.Counter(ModuleLevel, "n", 0, 0, 1)
	nilT.NameProcess("p")
	if nilT.RegisterTrack("t") != 0 {
		t.Fatal("nil RegisterTrack should return 0")
	}
	if nilT.WithPid(3) != nil {
		t.Fatal("nil WithPid should stay nil")
	}

	if New(nil, RequestLevel) != nil {
		t.Fatal("New(nil recorder) should be the off tracer")
	}
	if New(NewRing(8), Off) != nil {
		t.Fatal("New(level Off) should be the off tracer")
	}

	ring := NewRing(16)
	tr := New(ring, ModuleLevel)
	if !tr.Enabled(KernelLevel) || !tr.Enabled(ModuleLevel) || tr.Enabled(RequestLevel) {
		t.Fatal("level comparison wrong")
	}
	tr.Span(RequestLevel, "mem", "filtered", 1, 0, 10)
	tr.Span(ModuleLevel, "sm", "kept", 1, 5, 9)
	tr.Counter(RequestLevel, "filtered", 1, 0, 1)
	tr.Instant(KernelLevel, "kernel", "kept2", 0, 7)
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (request-level filtered out): %+v", len(evs), evs)
	}
	if evs[0].Name != "kept" || evs[1].Name != "kept2" {
		t.Fatalf("unexpected events %+v", evs)
	}
}

func TestWithPid(t *testing.T) {
	ring := NewRing(8)
	parent := New(ring, KernelLevel)
	child := parent.WithPid(7)
	child.Span(KernelLevel, "job", "j", 0, 1, 2)
	parent.Span(KernelLevel, "job", "p", 0, 1, 2)
	evs := ring.Events()
	if evs[0].Pid != 7 || evs[1].Pid != 0 {
		t.Fatalf("pids = %d,%d want 7,0", evs[0].Pid, evs[1].Pid)
	}
	if child.Level() != KernelLevel {
		t.Fatal("WithPid must keep the level")
	}
}

func TestRegisterTrack(t *testing.T) {
	ring := NewRing(8)
	tr := New(ring, KernelLevel)
	a := tr.RegisterTrack("engine")
	b := tr.RegisterTrack("SM0")
	if a == b || a == 0 || b == 0 {
		t.Fatalf("track ids must be distinct and nonzero: %d %d", a, b)
	}
	evs := ring.Events()
	if len(evs) != 2 || evs[0].Ph != PhaseMeta || evs[0].Cat != "thread_name" ||
		evs[0].Name != "engine" || evs[0].Tid != a {
		t.Fatalf("metadata events wrong: %+v", evs)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(&Event{Ts: uint64(i)})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := r.Events()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Ts != want {
			t.Fatalf("event %d Ts = %d, want %d (oldest-first order)", i, ev.Ts, want)
		}
	}
	// Partial fill keeps order too.
	r2 := NewRing(4)
	r2.Record(&Event{Ts: 1})
	r2.Record(&Event{Ts: 2})
	if evs := r2.Events(); len(evs) != 2 || evs[0].Ts != 1 || evs[1].Ts != 2 {
		t.Fatalf("partial ring events wrong: %+v", evs)
	}
	if r2.Dropped() != 0 {
		t.Fatal("no drops expected on partial fill")
	}
	if NewRing(0).buf == nil || len(NewRing(-1).buf) != DefaultRingCap {
		t.Fatal("non-positive capacity should use DefaultRingCap")
	}
}

// TestConcurrentEmit mimics the parallel runner: many jobs, each with its
// own WithPid tracer, emitting into one shared recorder. Run under -race
// (tier-1 does) this doubles as the data-race check for Ring, JSONStream
// and Multi.
func TestConcurrentEmit(t *testing.T) {
	ring := NewRing(1 << 12)
	var sink bytes.Buffer
	js := NewJSONStream(&sink)
	parent := New(Multi(ring, js), RequestLevel)
	const jobs, perJob = 8, 200
	var wg sync.WaitGroup
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			tr := parent.WithPid(j + 1)
			tid := tr.RegisterTrack("mod")
			for i := 0; i < perJob; i++ {
				tr.Span(RequestLevel, "mem", "req", tid, uint64(i), uint64(i+3))
			}
		}(j)
	}
	wg.Wait()
	if err := js.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	want := jobs * (perJob + 1) // spans + one metadata each
	if got := ring.Len(); got != want {
		t.Fatalf("ring holds %d events, want %d", got, want)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(sink.Bytes(), &parsed); err != nil {
		t.Fatalf("concurrent JSON output is invalid: %v", err)
	}
	if len(parsed) != want {
		t.Fatalf("JSON has %d events, want %d", len(parsed), want)
	}
}

func TestJSONStreamEmptyAndIdempotentClose(t *testing.T) {
	var b bytes.Buffer
	s := NewJSONStream(&b)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var parsed []any
	if err := json.Unmarshal(b.Bytes(), &parsed); err != nil || len(parsed) != 0 {
		t.Fatalf("empty stream should close to an empty JSON array, got %q (%v)", b.String(), err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	before := b.Len()
	s.Record(&Event{Name: "late", Ph: PhaseInstant}) // after Close: dropped
	_ = s.Flush()
	if b.Len() != before {
		t.Fatal("Record after Close must not write")
	}
}

// TestChromeTraceFormat validates every field chrome://tracing requires
// (name/ph/ts/dur/pid/tid) against an actual JSON parse, plus the golden
// fixture byte-for-byte.
func TestChromeTraceFormat(t *testing.T) {
	events := []Event{
		{Name: "engine", Cat: "thread_name", Ph: PhaseMeta, Tid: 1},
		{Name: "bfs", Cat: "process_name", Ph: PhaseMeta, Pid: 2},
		{Name: "kernel_0", Cat: "kernel", Ph: PhaseSpan, Ts: 0, Dur: 1200, Pid: 2, Tid: 1,
			Arg1Name: "blocks", Arg1: 64},
		{Name: "fast-forward", Cat: "engine", Ph: PhaseSpan, Ts: 100, Dur: 40, Pid: 2, Tid: 1},
		{Name: "l1.0", Cat: "mem", Ph: PhaseSpan, Ts: 220, Dur: 31, Pid: 2, Tid: 3,
			Arg1Name: "addr", Arg1: 0x8000, Arg2Name: "level", Arg2: 1},
		{Name: "block_done", Cat: "sm", Ph: PhaseInstant, Ts: 900, Pid: 2, Tid: 4},
		{Name: "active_sms", Ph: PhaseCounter, Cat: "counter", Ts: 256, Pid: 2, Tid: 1,
			Arg1Name: "value", Arg1: 13},
		{Name: `odd"name\`, Cat: "esc\x01ape", Ph: PhaseInstant, Ts: 7, Pid: 2, Tid: 1},
	}
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, events); err != nil {
		t.Fatal(err)
	}

	var parsed []map[string]any
	if err := json.Unmarshal(b.Bytes(), &parsed); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, b.String())
	}
	if len(parsed) != len(events) {
		t.Fatalf("parsed %d events, want %d", len(parsed), len(events))
	}
	for i, obj := range parsed {
		for _, field := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := obj[field]; !ok {
				t.Errorf("event %d missing required field %q: %v", i, field, obj)
			}
		}
		ph, _ := obj["ph"].(string)
		if len(ph) != 1 {
			t.Errorf("event %d ph = %q, want single char", i, ph)
		}
		if ph != "M" {
			if _, ok := obj["ts"]; !ok {
				t.Errorf("event %d (%s) missing ts", i, ph)
			}
		}
		if ph == "X" {
			if _, ok := obj["dur"]; !ok {
				t.Errorf("event %d: complete event missing dur", i)
			}
		}
		if ph == "M" {
			name, _ := obj["name"].(string)
			if name != "thread_name" && name != "process_name" {
				t.Errorf("metadata event %d name = %q", i, name)
			}
			args, _ := obj["args"].(map[string]any)
			if _, ok := args["name"]; !ok {
				t.Errorf("metadata event %d missing args.name", i)
			}
		}
		if ph == "C" {
			args, _ := obj["args"].(map[string]any)
			if _, ok := args["value"]; !ok {
				t.Errorf("counter event %d missing args.value", i)
			}
		}
	}
	// Spot-check numeric round trips.
	if v := parsed[2]["dur"].(float64); v != 1200 {
		t.Errorf("kernel dur = %v", v)
	}
	if v := parsed[4]["args"].(map[string]any)["addr"].(float64); v != 0x8000 {
		t.Errorf("addr arg = %v", v)
	}

	golden := filepath.Join("testdata", "chrome_trace.golden.json")
	if *update {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("chrome trace drifted from golden fixture\ngot:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}

func TestWriteCounterCSV(t *testing.T) {
	events := []Event{
		{Name: "k0", Cat: "kernel", Ph: PhaseSpan, Ts: 0, Dur: 100},
		{Name: "k1", Cat: "kernel", Ph: PhaseSpan, Ts: 101, Dur: 100},
		{Name: "active_sms", Ph: PhaseCounter, Ts: 50, Arg1Name: "value", Arg1: 4},
		{Name: "dram.queue", Ph: PhaseCounter, Ts: 50, Arg1Name: "value", Arg1: 9},
		{Name: "active_sms", Ph: PhaseCounter, Ts: 150, Arg1Name: "value", Arg1: 2},
	}
	var b bytes.Buffer
	if err := WriteCounterCSV(&b, events); err != nil {
		t.Fatal(err)
	}
	want := "kernel,cycle,active_sms,dram.queue\nk0,50,4,9\nk1,150,2,0\n"
	if b.String() != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", b.String(), want)
	}

	// Multi-pid recordings grow a pid column.
	multi := append([]Event{}, events...)
	multi = append(multi, Event{Name: "active_sms", Ph: PhaseCounter, Ts: 10, Pid: 2,
		Arg1Name: "value", Arg1: 1})
	b.Reset()
	if err := WriteCounterCSV(&b, multi); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "pid,kernel,cycle,") {
		t.Errorf("multi-pid CSV missing pid column:\n%s", b.String())
	}

	b.Reset()
	if err := WriteCounterCSV(&b, nil); err != nil {
		t.Fatal(err)
	}
	if b.String() != "kernel,cycle\n" {
		t.Errorf("empty CSV = %q", b.String())
	}
}

func TestStallSummary(t *testing.T) {
	events := []Event{
		{Name: "mem", Cat: "stall", Ph: PhaseCounter, Ts: 0, Tid: 1, Arg1Name: "cycles", Arg1: 70},
		{Name: "mem", Cat: "stall", Ph: PhaseCounter, Ts: 0, Tid: 2, Arg1Name: "cycles", Arg1: 30},
		{Name: "barrier", Cat: "stall", Ph: PhaseCounter, Ts: 0, Tid: 1, Arg1Name: "cycles", Arg1: 40},
		{Name: "not-a-stall", Cat: "counter", Ph: PhaseCounter, Ts: 0, Arg1: 999},
	}
	rows := StallSummary(events, map[string]uint64{"l1.mshr_stall": 55})
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Name != "mem" || rows[0].Cycles != 100 {
		t.Errorf("top row = %+v", rows[0])
	}
	if rows[1].Name != "l1.mshr_stall" || rows[1].Cycles != 55 {
		t.Errorf("second row = %+v", rows[1])
	}
	var b bytes.Buffer
	if err := WriteStallSummary(&b, events, nil, 2); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "mem") || !strings.Contains(out, "barrier") ||
		strings.Contains(out, "not-a-stall") {
		t.Errorf("summary:\n%s", out)
	}
	b.Reset()
	if err := WriteStallSummary(&b, nil, nil, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no stall events") {
		t.Errorf("empty summary = %q", b.String())
	}
}

func TestMultiErrorPropagation(t *testing.T) {
	m := Multi(Nop{}, Nop{})
	m.Record(&Event{})
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if one := Multi(Nop{}); one != (Nop{}) {
		t.Fatal("Multi of one recorder should return it directly")
	}
}

// TestOffPathAllocs is the unit-level half of the overhead guard
// (BenchmarkObsOff at the repo root, run by `make bench-quick`, is the
// whole-simulation half): the exact
// hook sequence a module runs per request with tracing off must not
// allocate.
func TestOffPathAllocs(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.Enabled(RequestLevel) {
			tr.Span(RequestLevel, "mem", "req", 1, 0, 10)
		}
		tr.Counter(ModuleLevel, "active", 0, 0, 1)
		tr.Instant(KernelLevel, "k", "x", 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("off-path hooks allocated %v allocs/op, want 0", allocs)
	}
}
