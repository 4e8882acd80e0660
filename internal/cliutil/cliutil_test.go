package cliutil

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"swiftsim/internal/sim"
)

func TestSplitList(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []string
	}{
		{"plain", "BFS,GEMM,SM", []string{"BFS", "GEMM", "SM"}},
		{"spaces around elements", " BFS , GEMM ,SM", []string{"BFS", "GEMM", "SM"}},
		{"trailing comma", "BFS,GEMM,", []string{"BFS", "GEMM"}},
		{"leading comma", ",BFS", []string{"BFS"}},
		{"consecutive commas", "BFS,,GEMM", []string{"BFS", "GEMM"}},
		{"single element", "BFS", []string{"BFS"}},
		{"single padded element", "  BFS\t", []string{"BFS"}},
		{"empty", "", nil},
		{"only commas", ",,,", nil},
		{"only whitespace", "  \t ", nil},
		{"whitespace between commas", " , , ", nil},
		{"tabs", "\tBFS\t,\tGEMM\t", []string{"BFS", "GEMM"}},
		{"interior spaces preserved", "a b, c d", []string{"a b", "c d"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SplitList(tt.in); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("SplitList(%q) = %#v, want %#v", tt.in, got, tt.want)
			}
		})
	}
}

// TestRunFlags: the shared block parses into sim.Options, and a rejected
// combination is reported in the flags' own names.
func TestRunFlags(t *testing.T) {
	parse := func(args ...string) (sim.Options, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		opts := RunFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return opts()
	}
	got, err := parse("-epoch-cycles", "8", "-sample", "-sample-frac", "0.25", "-sample-stride", "4")
	want := sim.Options{EpochCycles: 8,
		Sampling: sim.Sampling{Enabled: true, BlockFraction: 0.25, ReplayStride: 4}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("full block = %+v, %v; want %+v", got, err, want)
	}
	if got, err := parse(); err != nil || !reflect.DeepEqual(got, sim.Options{EpochCycles: 1}) {
		t.Errorf("defaults = %+v, %v; want the exact run", got, err)
	}
	for flagName, args := range map[string][]string{
		"-epoch-cycles":  {"-epoch-cycles", "-2"},
		"-sample-frac":   {"-sample-frac", "0.5"},
		"-sample-stride": {"-sample", "-sample-stride", "-1"},
	} {
		if _, err := parse(args...); err == nil || !strings.Contains(err.Error(), flagName) {
			t.Errorf("%v: error %v does not name %s", args, err, flagName)
		}
	}
}
