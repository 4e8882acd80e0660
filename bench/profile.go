package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The reduction of a runtime/pprof CPU profile to per-layer CPU time,
// with the standard library only: the profile is a gzipped protocol
// buffer (github.com/google/pprof/proto/profile.proto) and the few
// fields needed here are read with a hand-written decoder.
//
// Attribution rule, applied to each sample's stack from the leaf up:
//
//   - a stack that runs through the garbage collector (background mark
//     and sweep workers, allocation assists) is runtime_gc, wherever it
//     started;
//   - otherwise the sample belongs to the innermost frame from
//     swiftsim/internal/<pkg>: the layer that was executing, or that
//     called into the runtime or the standard library (a map access, an
//     allocation, a memmove is charged to the layer that asked for it).
//     internal/mem, the request type every memory level shares, is looked
//     through to its caller;
//   - a stack with no simulator frame that runs through the scheduler
//     (park, steal, futex sleep) is runtime_sched;
//   - everything else is other: net/http, encoding/json, the harness
//     itself, and the simulator packages that have no bucket of their own
//     (sim, runner, regress, config, workload, ...).
//
// A layer's possible saving is bounded by its share under this rule.

// layerOf maps a simulator package to its bucket. Packages left out fall
// into "other".
var layerOf = map[string]string{
	"engine": "engine", "smcore": "smcore", "cache": "cache", "noc": "noc",
	"dram": "dram", "analytic": "analytic", "reuse": "reuse", "trace": "trace",
	"metrics": "metrics", "service": "service",
}

var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcDrain", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.(*mheap).reclaim", "runtime.sweepone",
	"runtime.(*sweepLocked).sweep", "runtime.deductSweepCredit",
}

var schedRoots = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.mcall",
	"runtime.goschedImpl", "runtime.gosched_m", "runtime.mstart", "runtime.futex",
	"runtime.notesleep", "runtime.notewakeup", "runtime.usleep", "runtime.osyield",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.wakep", "runtime.startm",
}

const simPrefix = "swiftsim/internal/"

// classify applies the attribution rule to one stack of function names,
// leaf first.
func classify(stack []string) string {
	layer := ""
	sched := false
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcRoots) {
			return "runtime_gc"
		}
		if layer == "" && strings.HasPrefix(fn, simPrefix) {
			pkg := fn[len(simPrefix):]
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if pkg == "mem" {
				continue
			}
			if layer = layerOf[pkg]; layer == "" {
				layer = "other"
			}
		}
		if hasAnyPrefix(fn, schedRoots) {
			sched = true
		}
	}
	switch {
	case layer != "":
		return layer
	case sched:
		return "runtime_sched"
	default:
		return "other"
	}
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// reduceProfile returns CPU nanoseconds per bucket of hostCategories.
func reduceProfile(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := map[string]int64{}
	for _, s := range prof.samples {
		stack := make([]string, 0, len(s.locations))
		for _, loc := range s.locations {
			// A location's lines run from the innermost inlined
			// function to the function they were inlined into.
			for _, fnID := range prof.locFuncs[loc] {
				stack = append(stack, prof.strings[prof.funcName[fnID]])
			}
		}
		out[classify(stack)] += s.value
	}
	return out, nil
}

type profSample struct {
	locations []uint64
	value     int64 // the last sample value: cpu nanoseconds
}

type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, leaf first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

var errTruncated = errors.New("truncated protocol buffer")

// pbReader walks the fields of one protocol-buffer message.
type pbReader struct{ b []byte }

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes. Fixed-width fields are skipped.
func (r *pbReader) next() (field int, v uint64, data []byte, err error) {
	for {
		key, err := r.varint()
		if err != nil {
			return 0, 0, nil, err
		}
		field = int(key >> 3)
		switch key & 7 {
		case 0:
			v, err = r.varint()
			return field, v, nil, err
		case 2:
			n, err := r.varint()
			if err != nil {
				return 0, 0, nil, err
			}
			if n > uint64(len(r.b)) {
				return 0, 0, nil, errTruncated
			}
			data, r.b = r.b[:n], r.b[n:]
			return field, 0, data, nil
		case 1, 5:
			n := 8
			if key&7 == 5 {
				n = 4
			}
			if len(r.b) < n {
				return 0, 0, nil, errTruncated
			}
			r.b = r.b[n:]
		default:
			return 0, 0, nil, fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
}

// repeatedVarints appends a repeated integer field's values, packed or
// not.
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	r := pbReader{raw}
	for len(r.b) > 0 {
		field, _, data, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // Sample
			var s profSample
			var values []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locations, err = repeatedVarints(s.locations, v, d); err != nil {
						return nil, err
					}
				case 2:
					if values, err = repeatedVarints(values, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(values) > 0 {
				s.value = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // Line
					l := pbReader{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // Function
			var id uint64
			var name int64
			m := pbReader{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			}
			p.funcName[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}
