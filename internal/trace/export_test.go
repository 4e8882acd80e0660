package trace

// The arena's chunk sizes, for the tests that bound a trace by them.
const (
	InstChunk = instChunk
	AddrChunk = addrChunk
)

// SameTrace compares two traces field for field.
var SameTrace = sameTrace
