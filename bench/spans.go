package main

import "time"

// span is one traced interval of the harness: a call into a public
// function of the simulator, the runner or the service, or a phase of a
// pass that groups such calls. Spans of one pass share Workload and Pass;
// Parent is the ID of the enclosing span (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Detail   string `json:"detail,omitempty"` // the job or URL the call was for
	Workload string `json:"workload"`
	Pass     int    `json:"pass"`
	StartNS  int64  `json:"start_ns"` // unix nanoseconds
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; the parent writes them out when the
// run ends. A nil recorder records nothing, which is how end-to-end
// passes run: tracing is off unless the pass is a traced one.
type recorder struct {
	workload string
	pass     int
	spans    []span
	stack    []int
}

func newRecorder(workload string, pass int) *recorder {
	return &recorder{workload: workload, pass: pass}
}

// begin opens a span under the innermost open one and returns the
// function that closes it.
func (r *recorder) begin(name, detail string) func() {
	if r == nil {
		return func() {}
	}
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name, Detail: detail,
		Workload: r.workload, Pass: r.pass, StartNS: time.Now().UnixNano(),
	})
	r.stack = append(r.stack, id)
	return func() {
		r.spans[id-1].EndNS = time.Now().UnixNano()
		r.stack = r.stack[:len(r.stack)-1]
	}
}
