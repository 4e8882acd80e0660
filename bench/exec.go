package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"
)

// executor runs the three kinds of work a run is made of. The benchmark
// uses children; the smoke test uses inProcess.
type executor interface {
	pass(cfg passConfig) (*passRecord, error)
	ref(cfg refConfig) (*refRecord, error)
	rigs(cfg rigConfig) (map[string]float64, error)
	// hostReading reads the host's speed (calib.go) outside any pass.
	hostReading() (float64, error)
}

// childRequest is what the parent writes to a child's standard input; the
// child answers with one JSON value on its standard output.
type childRequest struct {
	Pass *passConfig `json:"pass,omitempty"`
	Ref  *refConfig  `json:"ref,omitempty"`
	Rigs *rigConfig  `json:"rigs,omitempty"`
	// Calib asks for one reading of the host's speed.
	Calib bool `json:"calib,omitempty"`
}

// children runs each piece of work in a fresh process of this binary, one
// at a time. That keeps the simulator's in-process memos (sim's profile
// cache, workload.Generate, trace.ContentHash) as cold in every pass as a
// CLI user finds them, makes workload order irrelevant, and gives each
// pass its own CPU time and peak RSS.
type children struct {
	exe string
}

func newChildren() (children, error) {
	exe, err := os.Executable()
	return children{exe: exe}, err
}

func (c children) call(req childRequest, out any) error {
	in, err := json.Marshal(req)
	if err != nil {
		return err
	}
	cmd := exec.Command(c.exe, "-child")
	cmd.Stdin = bytes.NewReader(in)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	// Run waits for the child to exit, so no child outlives its call.
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	return json.Unmarshal(stdout.Bytes(), out)
}

func (c children) pass(cfg passConfig) (*passRecord, error) {
	cfg.SpawnNS = time.Now().UnixNano()
	rec := &passRecord{}
	return rec, c.call(childRequest{Pass: &cfg}, rec)
}

func (c children) ref(cfg refConfig) (*refRecord, error) {
	rec := &refRecord{}
	return rec, c.call(childRequest{Ref: &cfg}, rec)
}

func (c children) hostReading() (float64, error) {
	var f float64
	return f, c.call(childRequest{Calib: true}, &f)
}

func (c children) rigs(cfg rigConfig) (map[string]float64, error) {
	var out map[string]float64
	return out, c.call(childRequest{Rigs: &cfg}, &out)
}

// childMain is the child side: GOMAXPROCS = min(nproc, 2), one request
// from standard input, one answer to standard output.
func childMain(stdin io.Reader, stdout io.Writer) error {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	var req childRequest
	if err := json.NewDecoder(stdin).Decode(&req); err != nil {
		return fmt.Errorf("reading request: %w", err)
	}
	var (
		out any
		err error
	)
	switch {
	case req.Pass != nil:
		out, err = runPass(*req.Pass)
	case req.Ref != nil:
		out, err = runRef(*req.Ref)
	case req.Rigs != nil:
		out, err = runRigs(*req.Rigs)
	case req.Calib:
		out = hostReading()
	default:
		err = fmt.Errorf("empty request")
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(out)
}

// inProcess runs everything in the calling process. Memos stay warm from
// one pass to the next, so its timings are not the benchmark's; it exists
// for the smoke test, which checks names, counts and correctness checks.
type inProcess struct {
	corrupt func(pass int, key string, canonical []byte) []byte
}

func (e inProcess) pass(cfg passConfig) (*passRecord, error) {
	cfg.SpawnNS = time.Now().UnixNano()
	if e.corrupt != nil {
		pass := cfg.Pass
		cfg.Corrupt = func(key string, b []byte) []byte { return e.corrupt(pass, key, b) }
	}
	return runPass(cfg)
}

func (e inProcess) ref(cfg refConfig) (*refRecord, error) { return runRef(cfg) }

func (e inProcess) rigs(cfg rigConfig) (map[string]float64, error) { return runRigs(cfg) }

// hostReading does not read the host: in-process timings are not the
// benchmark's, and the smoke test would spend a third of its time here.
func (e inProcess) hostReading() (float64, error) { return 1, nil }
