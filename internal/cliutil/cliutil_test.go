package cliutil

import (
	"reflect"
	"testing"
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

func TestValidateModes(t *testing.T) {
	tests := []struct {
		name    string
		m       Modes
		wantErr bool
	}{
		{"defaults", Modes{}, false},
		{"exact serial", Modes{EngineThreads: 1, EpochCycles: 1}, false},
		{"exact parallel", Modes{EngineThreads: 8, EpochCycles: 1}, false},
		{"zero epoch with threads", Modes{EngineThreads: 4}, false},
		{"relaxed parallel", Modes{EngineThreads: 4, EpochCycles: 8}, false},
		{"relaxed two threads", Modes{EngineThreads: 2, EpochCycles: 2}, false},
		{"large epoch parallel", Modes{EngineThreads: 2, EpochCycles: 1024}, false},
		{"relaxed serial", Modes{EngineThreads: 1, EpochCycles: 8}, true},
		{"relaxed zero threads", Modes{EpochCycles: 8}, true},
		{"relaxed negative threads", Modes{EngineThreads: -1, EpochCycles: 8}, true},
		{"smallest relaxed serial", Modes{EngineThreads: 1, EpochCycles: 2}, true},
		{"negative threads", Modes{EngineThreads: -1}, true},
		{"negative epoch", Modes{EngineThreads: 4, EpochCycles: -1}, true},
		{"negative epoch serial", Modes{EpochCycles: -3}, true},

		{"sampling default knobs", Modes{Sample: true}, false},
		{"sampling explicit knobs", Modes{Sample: true, SampleFraction: 0.25, SampleStride: 4}, false},
		{"sampling stride one", Modes{Sample: true, SampleStride: 1}, false},
		{"sampling with parallel engine", Modes{Sample: true, EngineThreads: 4}, false},
		{"sampling with relaxed epochs", Modes{Sample: true, EngineThreads: 4, EpochCycles: 8}, false},
		{"sampling fraction one", Modes{Sample: true, SampleFraction: 1}, true},
		{"sampling fraction negative", Modes{Sample: true, SampleFraction: -0.5}, true},
		{"sampling stride negative", Modes{Sample: true, SampleStride: -1}, true},
		{"fraction without sample", Modes{SampleFraction: 0.25}, true},
		{"stride without sample", Modes{SampleStride: 4}, true},
		{"sampling does not excuse bad epochs", Modes{Sample: true, EngineThreads: 1, EpochCycles: 8}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := ValidateModes(tt.m)
			if (err != nil) != tt.wantErr {
				t.Errorf("ValidateModes(%+v) = %v, want error %v", tt.m, err, tt.wantErr)
			}
		})
	}
}
