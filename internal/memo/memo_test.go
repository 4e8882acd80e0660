package memo

import (
	"sync"
	"testing"
)

// TestMemoPanicDoesNotPoison: a compute that panics fails its own caller
// and leaves no entry behind, so the next caller of the key computes again
// instead of receiving the zero value; a caller that was already waiting
// on the panicking computation does the same.
func TestMemoPanicDoesNotPoison(t *testing.T) {
	m := New[string](1<<20, func(*int) int { return 8 })
	calls := 0
	compute := func(string) *int {
		calls++
		if calls == 1 {
			panic("profiler bug")
		}
		v := 42
		return &v
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the panic did not reach the computing caller")
			}
		}()
		m.Get("k", compute)
	}()
	if n := m.Stats().Entries; n != 0 {
		t.Fatalf("the panicked computation left %d entries behind", n)
	}
	if v := m.Get("k", compute); v == nil || *v != 42 {
		t.Fatalf("the caller after a panic got %v, want a recomputed 42", v)
	}
	if v := m.Get("k", func(string) *int { t.Error("recomputed a retained key"); return nil }); v == nil || *v != 42 {
		t.Errorf("retained value = %v, want 42", v)
	}

	// A waiter: the first computation holds its entry until the second
	// caller has had every chance to find it, then panics.
	entered, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		m.Get("w", func(string) *int { close(entered); <-release; panic("profiler bug") })
	}()
	<-entered
	waiter := make(chan *int)
	go func() { v := 7; waiter <- m.Get("w", func(string) *int { return &v }) }()
	close(release)
	wg.Wait()
	if v := <-waiter; v == nil || *v != 7 {
		t.Errorf("the waiter on a panicked computation got %v, want its own 7", v)
	}
}

// TestMemoEvictsOldestByBytes: retained values are bounded by their summed
// weight (here their bytes), the oldest completed entry goes first, a value
// heavier than the whole limit is handed out without being retained, and
// eviction leaves handed-out values alone.
func TestMemoEvictsOldestByBytes(t *testing.T) {
	m := New[int](300, func(v *[]byte) int { return len(*v) })
	value := func(n int) func(int) *[]byte {
		return func(int) *[]byte { b := make([]byte, n); return &b }
	}
	first := m.Get(1, value(100))
	m.Get(2, value(100))
	m.Get(3, value(100))
	if n := m.Stats().Entries; n != 3 {
		t.Fatalf("%d entries within the limit, want 3", n)
	}
	m.Get(4, value(100))
	before := m.Stats().Computes
	m.Get(2, value(100))
	m.Get(3, value(100))
	m.Get(4, value(100))
	if st := m.Stats(); st.Entries != 3 || st.Computes != before {
		t.Errorf("after a fourth value: %d entries, %d recomputes of the newest three; want 3 and 0", st.Entries, st.Computes-before)
	}
	if m.Get(1, value(100)) == first {
		t.Error("the oldest entry was not the one evicted")
	}
	if len(*first) != 100 {
		t.Error("eviction disturbed a handed-out value")
	}
	big := m.Get(5, value(1<<20))
	if len(*big) != 1<<20 || m.Get(5, value(1<<20)) == big {
		t.Error("a value heavier than the limit was retained, or not handed out")
	}
}

// TestFlushDropsRetainedValues: after Flush a memo retains nothing and
// computes each key again on its next use, and its weight bound counts
// from zero: values retained since fill it as if the memo were new.
func TestFlushDropsRetainedValues(t *testing.T) {
	m := New[int](2, func(int) int { return 1 })
	id := func(k int) int { return k }
	m.Get(1, id)
	m.Get(2, id)
	m.Flush()
	if s := m.Stats(); s.Entries != 0 || s.Computes != 2 {
		t.Fatalf("after Flush: %+v, want no entries and 2 computes", s)
	}
	m.Get(1, id)
	m.Get(3, id)
	m.Get(1, id)
	if s := m.Stats(); s.Entries != 2 || s.Computes != 4 {
		t.Errorf("after refilling: %+v, want 2 entries and 4 computes", s)
	}
}
