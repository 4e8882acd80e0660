package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// JSONStream is a streaming Recorder writing Chrome trace-event JSON (the
// "JSON array format" chrome://tracing and Perfetto load) as events
// arrive, so a killed or timed-out run still leaves everything recorded up
// to the cut on disk. Close writes the closing bracket — callers must
// Close (idempotently) on every exit path to get well-terminated JSON; see
// cmd/sweep. It is safe for concurrent use.
type JSONStream struct {
	mu     sync.Mutex
	w      *bufio.Writer
	buf    []byte    // reusable per-event encode buffer (guarded by mu)
	closer io.Closer // closes the underlying file, if any
	opened bool      // '[' written
	first  bool      // next event is the first (no leading comma)
	closed bool
	err    error
}

// NewJSONStream returns a JSONStream writing to w. The stream buffers
// through a bufio.Writer, flushed by Flush and on Close. If w is an
// io.Closer (a file), Close closes it after terminating the array.
func NewJSONStream(w io.Writer) *JSONStream {
	s := &JSONStream{w: bufio.NewWriterSize(w, 1<<16), first: true}
	if c, ok := w.(io.Closer); ok {
		s.closer = c
	}
	return s
}

// Record implements Recorder. Encoding is hand-rolled: the event schema is
// fixed and flat, and strconv.AppendX into a reusable scratch buffer
// avoids encoding/json's reflection on what can be a very hot path at
// RequestLevel. Each event is encoded into the scratch buffer and handed
// to the buffered writer in one Write, keeping the critical section short
// when many goroutines (parallel sweeps) share the recorder.
func (s *JSONStream) Record(ev *Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.err != nil {
		return
	}
	b := s.buf[:0]
	if !s.opened {
		s.opened = true
		b = append(b, "[\n"...)
	}
	if s.first {
		s.first = false
	} else {
		b = append(b, ",\n"...)
	}
	b = appendEvent(b, ev)
	s.buf = b
	s.w.Write(b)
}

// Flush implements Recorder.
func (s *JSONStream) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	if s.closed {
		return nil
	}
	s.err = s.w.Flush()
	return s.err
}

// Close implements Recorder: it terminates the JSON array (writing "[]"
// if no event was ever recorded), flushes, and closes the underlying file
// if there is one. Close is idempotent.
func (s *JSONStream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if !s.opened {
		s.w.WriteString("[")
	}
	s.w.WriteString("\n]\n")
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.closer != nil {
		if err := s.closer.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// appendEvent encodes one event onto b and returns the extended buffer.
func appendEvent(b []byte, ev *Event) []byte {
	// For metadata events the trace format puts the metadata *kind*
	// ("thread_name") in the top-level name and the label in args.name;
	// Event stores the kind in Cat and the label in Name, so swap here.
	name := ev.Name
	if ev.Ph == PhaseMeta {
		name = ev.Cat
	}
	b = append(b, `{"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"ph":"`...)
	b = append(b, ev.Ph)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(ev.Pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(ev.Tid), 10)
	switch ev.Ph {
	case PhaseMeta:
		b = append(b, `,"args":{"name":`...)
		b = appendJSONString(b, ev.Name)
		return append(b, `}}`...)
	case PhaseCounter:
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, ev.Cat)
		b = append(b, `,"ts":`...)
		b = strconv.AppendUint(b, ev.Ts, 10)
		b = append(b, `,"args":{`...)
		b = appendJSONString(b, ev.Arg1Name)
		b = append(b, ':')
		b = strconv.AppendUint(b, ev.Arg1, 10)
		return append(b, `}}`...)
	}
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, ev.Cat)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, ev.Ts, 10)
	if ev.Ph == PhaseSpan {
		b = append(b, `,"dur":`...)
		b = strconv.AppendUint(b, ev.Dur, 10)
	}
	if ev.Ph == PhaseInstant {
		b = append(b, `,"s":"t"`...)
	}
	if ev.Arg1Name != "" {
		b = append(b, `,"args":{`...)
		b = appendJSONString(b, ev.Arg1Name)
		b = append(b, ':')
		b = strconv.AppendUint(b, ev.Arg1, 10)
		if ev.Arg2Name != "" {
			b = append(b, ',')
			b = appendJSONString(b, ev.Arg2Name)
			b = append(b, ':')
			b = strconv.AppendUint(b, ev.Arg2, 10)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendJSONString appends s as a JSON string. Event names and categories
// are simulator-chosen identifiers (module names, stall reasons), so the
// escape path is cold but still correct for arbitrary input.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
