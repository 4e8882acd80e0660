package sim

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"swiftsim/internal/config"
	"swiftsim/internal/reuse"
	"swiftsim/internal/workload"
)

// TestValidate is the table the three former validators (the front ends'
// mode check, the sampler's range check, the wire decoder's Kind check)
// covered between them.
func TestValidate(t *testing.T) {
	sampling := func(frac float64, stride int) Sampling {
		return Sampling{Enabled: true, BlockFraction: frac, ReplayStride: stride}
	}
	tests := []struct {
		name    string
		o       Options
		wantErr bool
	}{
		{"defaults", Options{}, false},
		{"exact serial", Options{EngineThreads: 1, EpochCycles: 1}, false},
		{"exact parallel", Options{EngineThreads: 8, EpochCycles: 1}, false},
		{"zero epoch with threads", Options{EngineThreads: 4}, false},
		{"relaxed parallel", Options{EngineThreads: 4, EpochCycles: 8}, false},
		{"relaxed two threads", Options{EngineThreads: 2, EpochCycles: 2}, false},
		{"large epoch parallel", Options{EngineThreads: 2, EpochCycles: 1024}, false},
		{"relaxed serial", Options{EngineThreads: 1, EpochCycles: 8}, false},
		{"relaxed zero threads", Options{EpochCycles: 8}, false},
		{"relaxed negative threads", Options{EngineThreads: -1, EpochCycles: 8}, true},
		{"smallest relaxed serial", Options{EngineThreads: 1, EpochCycles: 2}, false},
		{"negative threads", Options{EngineThreads: -1}, true},
		{"negative epoch", Options{EngineThreads: 4, EpochCycles: -1}, true},
		{"negative epoch serial", Options{EpochCycles: -3}, true},

		{"sampling default knobs", Options{Sampling: Sampling{Enabled: true}}, false},
		{"sampling explicit knobs", Options{Sampling: sampling(0.25, 4)}, false},
		{"sampling stride one", Options{Sampling: sampling(0, 1)}, false},
		{"sampling with parallel engine", Options{Sampling: Sampling{Enabled: true}, EngineThreads: 4}, false},
		{"sampling with relaxed epochs", Options{Sampling: Sampling{Enabled: true}, EngineThreads: 4, EpochCycles: 8}, false},
		{"sampling fraction one", Options{Sampling: sampling(1, 0)}, true},
		{"sampling fraction negative", Options{Sampling: sampling(-0.5, 0)}, true},
		{"sampling stride negative", Options{Sampling: sampling(0, -1)}, true},
		{"fraction without sample", Options{Sampling: Sampling{BlockFraction: 0.25}}, true},
		{"stride without sample", Options{Sampling: Sampling{ReplayStride: 4}}, true},
		{"sampling does not excuse bad epochs", Options{Sampling: Sampling{Enabled: true}, EpochCycles: -8}, true},

		{"seed without sample", Options{Sampling: Sampling{Seed: 7}}, true},
		{"sampling with a seed", Options{Sampling: Sampling{Enabled: true, Seed: 7}}, false},
		{"every kind", Options{Kind: L2Hybrid, HitRates: ReuseDistance}, false},
		{"kind below range", Options{Kind: -1}, true},
		{"kind above range", Options{Kind: L2Hybrid + 1}, true},
		{"hit rates below range", Options{HitRates: -1}, true},
		{"hit rates above range", Options{HitRates: ReuseDistance + 1}, true},
		{"sampling with snapshot", Options{Sampling: Sampling{Enabled: true}, SnapshotTo: io.Discard}, true},
		{"sampling with restore", Options{Sampling: Sampling{Enabled: true}, RestoreFrom: bytes.NewReader(nil)}, true},
		{"snapshot alone", Options{SnapshotAt: 100, SnapshotTo: io.Discard}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.o.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate(%+v) = %v, want error %v", tt.o, err, tt.wantErr)
			}
		})
	}
}

// TestParseKind: every row of kinds round-trips through its flag spelling,
// and a spelling outside the table is refused with the table's spellings.
func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{"detailed": Detailed, "basic": Basic, "memory": Memory, "l2": L2Hybrid} {
		if got, err := ParseKind(name); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	var flags []string
	for k, row := range kinds {
		got, err := ParseKind(row.flag)
		if err != nil || got != Kind(k) || got.String() != row.name {
			t.Errorf("ParseKind(%q) = %v, %v; want %s", row.flag, got, err, row.name)
		}
		flags = append(flags, row.flag)
	}
	_, err := ParseKind("Detailed")
	if err == nil {
		t.Fatal("ParseKind accepted a spelling outside the vocabulary")
	}
	if want := "(want " + strings.Join(flags, "|") + ")"; !strings.Contains(err.Error(), want) {
		t.Errorf("ParseKind error %q does not list %q", err, want)
	}
}

// TestWithDefaults pins the one overlay rule: what the job sets wins, a
// zero epoch value and a disabled Sampling take the default's.
func TestWithDefaults(t *testing.T) {
	def := Options{Kind: Basic, EngineThreads: 4, EpochCycles: 8, HitRates: ReuseDistance,
		Sampling: Sampling{Enabled: true, BlockFraction: 0.5}}
	own := Sampling{Enabled: true, ReplayStride: 2}
	tests := []struct {
		name      string
		job, want Options
	}{
		{"zero takes the default", Options{Kind: Memory},
			Options{Kind: Memory, EpochCycles: 8, Sampling: def.Sampling}},
		{"job value wins", Options{EpochCycles: 1, Sampling: own},
			Options{EpochCycles: 1, Sampling: own}},
		{"fields overlay independently", Options{Sampling: own},
			Options{EpochCycles: 8, Sampling: own}},
		{"a disabled Sampling takes the default's", Options{Sampling: Sampling{}},
			Options{EpochCycles: 8, Sampling: def.Sampling}},
		{"only the two dials overlay", Options{EngineThreads: 2, EpochCycles: 1, Sampling: own},
			Options{EngineThreads: 2, EpochCycles: 1, Sampling: own}},
	}
	for _, tt := range tests {
		if got := tt.job.WithDefaults(def); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%s: got %+v, want %+v", tt.name, got, tt.want)
		}
	}
	if got := (Options{Kind: L2Hybrid}).WithDefaults(Options{}); !reflect.DeepEqual(got, Options{Kind: L2Hybrid}) {
		t.Errorf("zero defaults changed the job: %+v", got)
	}
}

// TestEffective pins the normaliser: what an assembly runs.
func TestEffective(t *testing.T) {
	tests := []struct {
		name  string
		o     Options
		epoch int
	}{
		{"zero value is exact", Options{}, 1},
		{"relaxed kept", Options{Kind: Basic, EpochCycles: 8}, 8},
		{"Detailed relaxed kept", Options{Kind: Detailed, EpochCycles: 8}, 8},
		{"L2Hybrid relaxed kept", Options{Kind: L2Hybrid, EpochCycles: 4}, 4},
		{"Memory has nothing to relax, so exact", Options{Kind: Memory, EpochCycles: 8}, 1},
		{"Memory zero is exact", Options{Kind: Memory}, 1},
	}
	for _, tt := range tests {
		got := tt.o.Effective()
		if got.EpochCycles != tt.epoch {
			t.Errorf("%s: epoch %d, want %d", tt.name, got.EpochCycles, tt.epoch)
		}
		if again := got.Effective(); !reflect.DeepEqual(again, got) {
			t.Errorf("%s: Effective is not idempotent: %+v then %+v", tt.name, got, again)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: effective options do not validate: %v", tt.name, err)
		}
	}
	got := (Options{Sampling: Sampling{Enabled: true}}).Effective()
	if got.Sampling.BlockFraction != DefaultBlockFraction || got.Sampling.ReplayStride != DefaultReplayStride {
		t.Errorf("zero Sampling fields not defaulted: %+v", got)
	}
}

// TestEngineThreadsInert: EngineThreads is a field nothing reads. At every
// value, with exact and relaxed epochs, a run has the same identity, the
// same effective epoch and the same result bytes; and the identity of a
// relaxed run, with or without a thread count, is the literal the sharded
// engine rendered for EngineThreads=2, so no cache key or snapshot moved.
func TestEngineThreadsInert(t *testing.T) {
	gpu := config.RTX2080Ti()
	app := mustApp(t, "GEMM", 0.25)
	for _, epoch := range []int{1, 8} {
		var id, bytes string
		for _, threads := range []int{0, 1, 2, 64} {
			o := Options{Kind: Basic, EngineThreads: threads, EpochCycles: epoch}
			if got := o.Effective().EpochCycles; got != epoch {
				t.Errorf("threads=%d epoch=%d: effective epoch %d", threads, epoch, got)
			}
			res, err := Run(app, gpu, o)
			if err != nil {
				t.Fatalf("threads=%d epoch=%d: %v", threads, epoch, err)
			}
			if id == "" {
				id, bytes = o.Identity(), resultBytes(res)
			}
			if got := o.Identity(); got != id {
				t.Errorf("threads=%d epoch=%d: identity %q, want %q", threads, epoch, got, id)
			}
			if got := resultBytes(res); got != bytes {
				t.Errorf("threads=%d epoch=%d: result differs from threads=0", threads, epoch)
			}
		}
	}
	const parent = "kind=1 hitrates=0 epoch=8 sampling=false frac=0 stride=0 seed=0"
	for _, o := range []Options{{Kind: Basic, EngineThreads: 2, EpochCycles: 8}, {Kind: Basic, EpochCycles: 8}} {
		if got := o.Identity(); got != parent {
			t.Errorf("%+v: identity %q, want the parent commit's %q", o, got, parent)
		}
	}
}

// identityExempt lists the fields Identity deliberately leaves out:
// EngineThreads (nothing reads it) and the process-local hooks with the cycle that positions one of them. Every
// other field must change the identity when it changes.
var identityExempt = map[string]bool{
	"EngineThreads": true,
	"Scheduler":     true,
	"SnapshotAt":    true,
	"SnapshotTo":    true,
	"RestoreFrom":   true,
	"Trace":         true,
}

// bump moves a field to a different, non-zero value of its kind.
func bump(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 7)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	default:
		t.Fatalf("unhandled kind %v: teach this test about the new field's type", v.Kind())
	}
}

// TestOptionsFieldsAccountedFor walks sim.Options (and the nested Sampling)
// by reflection so a future option cannot be forgotten on the wire, in the
// cache key or in the snapshot: every field is either tagged json:"-" (and
// then exempt: what cannot reach a worker cannot be identity) or survives a
// JSON round trip, and changing it either moves Identity or the field is on
// the exempt list above.
func TestOptionsFieldsAccountedFor(t *testing.T) {
	// The bases are valid sampled runs, one relaxed and one of the kind that
	// reads HitRates, so every field moves the identity from one of them
	// (Memory forces the epoch, other kinds the hit-rate source, sampling
	// knobs need Enabled).
	bases := []Options{
		{Kind: Basic, EpochCycles: 2, Sampling: Sampling{Enabled: true}},
		{Kind: Memory, Sampling: Sampling{Enabled: true}},
	}

	var walk func(prefix string, typ reflect.Type, at func(*Options) reflect.Value)
	walk = func(prefix string, typ reflect.Type, at func(*Options) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			f, name := typ.Field(i), prefix+typ.Field(i).Name
			field := func(o *Options) reflect.Value { return at(o).Field(i) }
			if f.Type.Kind() == reflect.Struct {
				walk(name+".", f.Type, field)
				continue
			}
			switch tag := f.Tag.Get("json"); {
			case tag == "":
				t.Errorf("%s has no json tag: give it a wire name, or \"-\" if it cannot leave the process", name)
				continue
			case tag == "-":
				if !identityExempt[name] {
					t.Errorf("%s cannot reach a worker (json:\"-\") yet is not identity-exempt", name)
				}
				continue
			}
			moved := false
			for _, base := range bases {
				o := base
				bump(t, field(&o))
				data, err := json.Marshal(o)
				if err != nil {
					t.Fatal(err)
				}
				var back Options
				if err := json.Unmarshal(data, &back); err != nil {
					t.Fatalf("%s: %s: %v", name, data, err)
				}
				if !reflect.DeepEqual(back, o) {
					t.Errorf("%s did not survive the wire: sent %+v, got %+v (%s)", name, o, back, data)
				}
				moved = moved || o.Identity() != base.Identity()
			}
			if moved == identityExempt[name] {
				t.Errorf("%s: changing it moved the identity: %v, exempt: %v", name, moved, identityExempt[name])
			}
		}
	}
	walk("", reflect.TypeOf(Options{}), func(o *Options) reflect.Value { return reflect.ValueOf(o).Elem() })
}

// TestIdentityNormalised: spellings Effective maps to the same run share an
// identity, so they share a cache line and restore into one another.
func TestIdentityNormalised(t *testing.T) {
	same := [][2]Options{
		{{}, {EpochCycles: 1}},
		{{Kind: Memory, EpochCycles: 8}, {Kind: Memory}},
		{{Kind: Basic, HitRates: ReuseDistance}, {Kind: Basic}},
		{{Kind: Detailed, HitRates: ReuseDistance}, {Kind: Detailed}},
		{{Kind: L2Hybrid, HitRates: ReuseDistance}, {Kind: L2Hybrid}},
		{{Sampling: Sampling{Enabled: true}},
			{Sampling: Sampling{Enabled: true, BlockFraction: DefaultBlockFraction, ReplayStride: DefaultReplayStride}}},
	}
	for _, p := range same {
		if a, b := p[0].Identity(), p[1].Identity(); a != b {
			t.Errorf("%+v and %+v run identically but render %q and %q", p[0], p[1], a, b)
		}
	}
	if a, b := (Options{EpochCycles: 8}).Identity(), (Options{}).Identity(); a == b {
		t.Errorf("relaxed and exact epochs share the identity %q", a)
	}
	if a, b := (Options{Kind: Memory, HitRates: ReuseDistance}).Identity(), (Options{Kind: Memory}).Identity(); a == b {
		t.Errorf("Memory's two hit-rate sources share the identity %q", a)
	}
}

// FuzzOptionsJSON drives the wire decoder with arbitrary bytes: a decode
// either errors or yields options, and whatever then passes Validate must
// assemble on a 2-SM GPU without panicking — the worker's path from a lease
// grant's opts object to a wired simulator — into the layout its kind's row
// gives it.
func FuzzOptionsJSON(f *testing.F) {
	seed := func(o Options) {
		data, err := json.Marshal(o)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	seed(Options{})
	seed(Options{Kind: Memory, HitRates: ReuseDistance})
	seed(Options{Kind: Basic, EngineThreads: 2, EpochCycles: 8})
	seed(Options{Kind: L2Hybrid, EngineThreads: 64, Sampling: Sampling{Enabled: true, BlockFraction: 0.25, ReplayStride: 4, Seed: 9}})
	f.Add([]byte(`{"kind":9}`))
	f.Add([]byte(`{"kind":1,"epoch_cycles":8}`))
	f.Add([]byte(`{"kind":0,"engine_threads":-3,"sampling":{"block_fraction":2}}`))
	f.Add([]byte(`{"kind":"basic"}`))
	f.Add([]byte(`{"engine_threads":4,"epoch_cycles":4611686018427387904}`))
	f.Add([]byte(`[`))

	gpu := smallGPU()
	gpu.NumSMs = 2
	app, err := workload.Generate("BFS", 0.05)
	if err != nil {
		f.Fatal(err)
	}
	prof := reuse.ProfileApp(app, gpu) // Memory's units lay out its rates when built
	f.Fuzz(func(t *testing.T, data []byte) {
		var o Options
		if err := json.Unmarshal(data, &o); err != nil {
			return
		}
		if o.Validate() != nil {
			return
		}
		// Assembly errors are fine (structured); panics are not. An
		// assembly builds each module position as the kind's row says.
		a, err := assemble(gpu, o, prof)
		if err != nil {
			return
		}
		if err := checkLayout(a, o.Kind); err != nil {
			t.Error(err)
		}
	})
}
