package service

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swiftsim/internal/trace"
)

// outcome is one notification of a waiter, captured by a test done
// callback.
type outcome struct {
	val    []byte
	err    error
	cached bool
}

// testJob builds a board job and a waiter to post it with. The waiter's
// outcome lands on the returned channel; fires counts its notifications so
// tests can assert exactly-once resolution.
func testJob(key string, fires *atomic.Int32) (*boardJob, *waiter, chan outcome) {
	ch := make(chan outcome, 1)
	j := &boardJob{job: &job{key: key, app: &trace.App{Name: "app"}, sim: "detailed"}}
	w := &waiter{
		start: func(string) {},
		done: func(val []byte, err error, cached bool) {
			if fires != nil {
				fires.Add(1)
			}
			ch <- outcome{val, err, cached}
		},
	}
	return j, w, ch
}

// testBoard is a board over a fresh cache, with a long TTL (inertTTL) and
// tries as the retry budget.
func testBoard(t *testing.T, tries int) *board {
	t.Helper()
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return newBoard(inertTTL, tries, c)
}

// claimWire claims as a remote worker does over HTTP: the grant, then its
// wire descriptor. ok is false when the wait ran out with no job.
func claimWire(ctx context.Context, b *board, worker string) (WireJob, bool, error) {
	l, err := b.Claim(ctx, worker)
	if err != nil || l == nil {
		return WireJob{}, false, err
	}
	return b.Wire(l), true, nil
}

func waitOutcome(t *testing.T, ch chan outcome) outcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(5 * time.Second):
		t.Fatal("job never resolved")
		return outcome{}
	}
}

// A long TTL keeps the background reaper inert so tests drive expiry
// deterministically with explicit reap(now) calls.
const inertTTL = time.Hour

func TestBoardClaimFulfill(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	w := b.Register(false)

	var started atomic.Int32
	j, jw, ch := testJob("k1", nil)
	jw.start = func(worker string) {
		if worker != w {
			t.Errorf("start worker = %s, want %s", worker, w)
		}
		started.Add(1)
	}
	b.Post(j, jw)
	slot := b.queue[:1] // shares the queue's backing array

	wire, ok, err := claimWire(context.Background(), b, w)
	if err != nil || !ok {
		t.Fatalf("Claim: ok=%v err=%v", ok, err)
	}
	if slot[0] != nil {
		t.Error("Claim left the popped job in the queue's backing array")
	}
	if wire.Key != "k1" || wire.Token != 1 || wire.Attempt != 0 || wire.LeaseID == "" {
		t.Errorf("wire = %+v, want key k1, token 1, attempt 0, a lease id", wire)
	}
	if wire.LeaseTTLMS != inertTTL.Milliseconds() {
		t.Errorf("LeaseTTLMS = %d", wire.LeaseTTLMS)
	}
	if started.Load() != 1 {
		t.Errorf("start fired %d times, want 1", started.Load())
	}
	if err := b.Fulfill(wire.LeaseID, wire.Token, []byte("result"), ""); err != nil {
		t.Fatalf("Fulfill: %v", err)
	}
	o := waitOutcome(t, ch)
	if o.err != nil || string(o.val) != "result" {
		t.Errorf("outcome = (%q, %v)", o.val, o.err)
	}
	// A second commit of the same lease is stale, not a double-fire.
	if err := b.Fulfill(wire.LeaseID, wire.Token, []byte("again"), ""); !errors.Is(err, ErrStaleLease) {
		t.Errorf("second Fulfill = %v, want ErrStaleLease", err)
	}
}

func TestBoardClaimUnknownWorker(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	if _, _, err := claimWire(context.Background(), b, "w999"); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("Claim = %v, want ErrUnknownWorker", err)
	}
}

// TestBoardClaimLongPoll: an empty board parks the claim until a job
// arrives; a claim whose context expires first reports "no job" rather
// than an error.
func TestBoardClaimLongPoll(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	w := b.Register(false)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, ok, err := claimWire(ctx, b, w); ok || err != nil {
		t.Fatalf("timed-out claim: ok=%v err=%v, want no job, no error", ok, err)
	}

	got := make(chan WireJob, 1)
	go func() {
		wire, ok, err := claimWire(context.Background(), b, w)
		if err != nil || !ok {
			t.Errorf("parked claim: ok=%v err=%v", ok, err)
		}
		got <- wire
	}()
	time.Sleep(10 * time.Millisecond) // let the claim park
	j, jw, _ := testJob("k", nil)
	b.Post(j, jw)
	select {
	case wire := <-got:
		if wire.Key != "k" {
			t.Errorf("claimed %q, want k", wire.Key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked claim never woke")
	}
}

// TestBoardExpiryRequeuesWithFencing is the heart of the fault model: a
// worker that stops heartbeating loses its lease, the job requeues (at
// the front, with attempt+1 and a fresh fencing token), a second worker
// completes it, and the first worker's late commit is rejected stale.
func TestBoardExpiryRequeuesWithFencing(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	w1, w2 := b.Register(false), b.Register(false)

	var fires atomic.Int32
	j, jw, ch := testJob("k", &fires)
	b.Post(j, jw)
	stale, ok, err := claimWire(context.Background(), b, w1)
	if err != nil || !ok {
		t.Fatalf("first claim: ok=%v err=%v", ok, err)
	}

	// w1 "dies": no heartbeats, so a reap past the deadline expires it.
	b.reap(time.Now().Add(2 * inertTTL))
	if st := b.Stats(); st.Expired != 1 || st.Pending != 1 || st.Leased != 0 {
		t.Fatalf("after expiry: stats = %+v", st)
	}

	fresh, ok, err := claimWire(context.Background(), b, w2)
	if err != nil || !ok {
		t.Fatalf("second claim: ok=%v err=%v", ok, err)
	}
	if fresh.Key != "k" || fresh.Attempt != 1 || fresh.Token != stale.Token+1 {
		t.Errorf("requeued wire = %+v (stale token %d), want attempt 1 and a newer token", fresh, stale.Token)
	}

	// The presumed-dead worker's late commit must lose.
	if err := b.Fulfill(stale.LeaseID, stale.Token, []byte("late"), ""); !errors.Is(err, ErrStaleLease) {
		t.Errorf("stale Fulfill = %v, want ErrStaleLease", err)
	}
	if err := b.Fulfill(fresh.LeaseID, fresh.Token, []byte("winner"), ""); err != nil {
		t.Fatalf("fresh Fulfill: %v", err)
	}
	o := waitOutcome(t, ch)
	if o.err != nil || string(o.val) != "winner" {
		t.Errorf("outcome = (%q, %v)", o.val, o.err)
	}
	if fires.Load() != 1 {
		t.Errorf("done fired %d times, want exactly once", fires.Load())
	}
	if st := b.Stats(); st.Stale != 1 {
		t.Errorf("stats.Stale = %d, want 1", st.Stale)
	}
}

// TestBoardRequeueJumpsQueue: an expired job requeues ahead of jobs that
// have not yet waited a full lease.
func TestBoardRequeueJumpsQueue(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	w := b.Register(false)

	j1, jw1, _ := testJob("first", nil)
	b.Post(j1, jw1)
	wire, ok, err := claimWire(context.Background(), b, w)
	if err != nil || !ok || wire.Key != "first" {
		t.Fatalf("claim: %+v ok=%v err=%v", wire, ok, err)
	}
	j2, jw2, _ := testJob("backlog", nil)
	b.Post(j2, jw2)

	b.reap(time.Now().Add(2 * inertTTL))
	wire, ok, err = claimWire(context.Background(), b, w)
	if err != nil || !ok {
		t.Fatalf("reclaim: ok=%v err=%v", ok, err)
	}
	if wire.Key != "first" {
		t.Errorf("reclaimed %q, want the expired job ahead of the backlog", wire.Key)
	}
}

// TestBoardRetryBudget: a job whose every lease expires fails terminally
// with ErrRetriesExhausted after maxTries grants.
func TestBoardRetryBudget(t *testing.T) {
	const tries = 2
	b := testBoard(t, tries)
	defer b.Close(nil)
	w := b.Register(false)

	var fires atomic.Int32
	j, jw, ch := testJob("k", &fires)
	b.Post(j, jw)
	for i := 0; i < tries; i++ {
		if _, ok, err := claimWire(context.Background(), b, w); err != nil || !ok {
			t.Fatalf("claim %d: ok=%v err=%v", i, ok, err)
		}
		b.reap(time.Now().Add(2 * inertTTL))
	}
	o := waitOutcome(t, ch)
	if !errors.Is(o.err, ErrRetriesExhausted) {
		t.Errorf("outcome err = %v, want ErrRetriesExhausted", o.err)
	}
	if fires.Load() != 1 {
		t.Errorf("done fired %d times", fires.Load())
	}
	if st := b.Stats(); st.Exhausted != 1 || st.Expired != tries {
		t.Errorf("stats = %+v, want 1 exhausted / %d expired", st, tries)
	}
}

// TestBoardHeartbeat: renewal pushes the deadline so a reap that would
// have expired the original grant leaves it alone; unknown lease ids are
// reported lost so the worker can abandon those jobs.
func TestBoardHeartbeat(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	w := b.Register(false)
	j, jw, _ := testJob("k", nil)
	b.Post(j, jw)
	wire, _, err := claimWire(context.Background(), b, w)
	if err != nil {
		t.Fatal(err)
	}

	// Sit just before the renewed deadline but past the original one:
	// renew first, then reap at original-deadline + half a TTL.
	renewed, lost, err := b.Heartbeat(w, []string{wire.LeaseID, "l-bogus"})
	if err != nil {
		t.Fatal(err)
	}
	if len(renewed) != 1 || renewed[0] != wire.LeaseID {
		t.Errorf("renewed = %v", renewed)
	}
	if len(lost) != 1 || lost[0] != "l-bogus" {
		t.Errorf("lost = %v", lost)
	}
	b.reap(time.Now().Add(inertTTL / 2))
	if st := b.Stats(); st.Expired != 0 || st.Leased != 1 {
		t.Errorf("renewed lease expired anyway: stats = %+v", st)
	}

	if _, _, err := b.Heartbeat("w999", nil); !errors.Is(err, ErrUnknownWorker) {
		t.Errorf("heartbeat from unknown worker = %v, want ErrUnknownWorker", err)
	}

	// Another worker cannot renew someone else's lease.
	w2 := b.Register(false)
	if renewed, lost, _ := b.Heartbeat(w2, []string{wire.LeaseID}); len(renewed) != 0 || len(lost) != 1 {
		t.Errorf("cross-worker renew: renewed=%v lost=%v, want it reported lost", renewed, lost)
	}
}

// TestBoardFailTerminal: a worker-reported simulation error resolves the
// job without a requeue (the error is deterministic).
func TestBoardFailTerminal(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	w := b.Register(false)
	j, jw, ch := testJob("k", nil)
	b.Post(j, jw)
	wire, _, err := claimWire(context.Background(), b, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Fail(wire.LeaseID, wire.Token, errors.New("deadlock detected")); err != nil {
		t.Fatal(err)
	}
	o := waitOutcome(t, ch)
	if o.err == nil || !strings.Contains(o.err.Error(), "deadlock detected") {
		t.Errorf("outcome err = %v", o.err)
	}
	if st := b.Stats(); st.Pending != 0 || st.Leased != 0 {
		t.Errorf("job lingers: stats = %+v", st)
	}
}

// TestBoardCancel: canceling a pending job dequeues it; canceling a
// leased job invalidates the lease so the worker's commit is stale and
// its heartbeat reports the lease lost.
func TestBoardCancel(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	w := b.Register(false)
	skip := errors.New("skipped by fail-fast")

	leased, leasedW, chLeased := testJob("leased", nil)
	pending, pendingW, chPending := testJob("pending", nil)
	b.Post(leased, leasedW)
	b.Post(pending, pendingW)
	wire, _, err := claimWire(context.Background(), b, w)
	if err != nil || wire.Key != "leased" {
		t.Fatalf("claim: %+v err=%v", wire, err)
	}

	slot := b.queue[:1] // shares the queue's backing array
	b.Cancel(pending, pendingW, skip)
	if o := waitOutcome(t, chPending); !errors.Is(o.err, skip) {
		t.Errorf("pending outcome = %v", o.err)
	}
	if slot[0] != nil {
		t.Error("Cancel left the removed job in the queue's backing array")
	}
	b.Cancel(leased, leasedW, skip)
	if o := waitOutcome(t, chLeased); !errors.Is(o.err, skip) {
		t.Errorf("leased outcome = %v", o.err)
	}
	if err := b.Fulfill(wire.LeaseID, wire.Token, []byte("v"), ""); !errors.Is(err, ErrStaleLease) {
		t.Errorf("post-cancel Fulfill = %v, want ErrStaleLease", err)
	}
	if _, lost, _ := b.Heartbeat(w, []string{wire.LeaseID}); len(lost) != 1 {
		t.Errorf("heartbeat lost = %v, want the canceled lease", lost)
	}
	neither, _, _ := testJob("neither", nil)
	b.Cancel(neither, leasedW, skip) // unknown key: no-op, no panic
	if st := b.Stats(); st.Pending != 0 || st.Leased != 0 {
		t.Errorf("stats = %+v, want empty board", st)
	}
}

// TestBoardClose: shutdown resolves every outstanding job with the
// cause, unblocks parked claims, and rejects new work.
func TestBoardClose(t *testing.T) {
	b := testBoard(t, 3)
	w := b.Register(false)

	leased, leasedW, chLeased := testJob("leased", nil)
	pending, pendingW, chPending := testJob("pending", nil)
	b.Post(leased, leasedW)
	b.Post(pending, pendingW)
	if _, _, err := claimWire(context.Background(), b, w); err != nil {
		t.Fatal(err)
	}

	cause := errors.New("draining")
	b.Close(cause)
	b.Close(cause) // idempotent

	for name, ch := range map[string]chan outcome{"leased": chLeased, "pending": chPending} {
		o := waitOutcome(t, ch)
		if !errors.Is(o.err, errBoardClosed) || !errors.Is(o.err, cause) {
			t.Errorf("%s outcome = %v, want errBoardClosed wrapping cause", name, o.err)
		}
	}
	if _, _, err := claimWire(context.Background(), b, w); !errors.Is(err, errBoardClosed) {
		t.Errorf("post-close claim = %v, want errBoardClosed", err)
	}

	late, lateW, chLate := testJob("late", nil)
	b.Post(late, lateW)
	if o := waitOutcome(t, chLate); !errors.Is(o.err, errBoardClosed) {
		t.Errorf("post-close enqueue = %v, want errBoardClosed", o.err)
	}
}

// TestBoardCloseUnblocksParkedClaim: a claim long-polling an empty board
// is released (with errBoardClosed) by shutdown rather than left hanging
// until its poll window expires.
func TestBoardCloseUnblocksParkedClaim(t *testing.T) {
	b := testBoard(t, 3)
	w := b.Register(false)
	parked := make(chan error, 1)
	go func() {
		_, _, err := claimWire(context.Background(), b, w)
		parked <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the claim park
	b.Close(nil)
	select {
	case err := <-parked:
		if !errors.Is(err, errBoardClosed) {
			t.Errorf("parked claim = %v, want errBoardClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked claim never unblocked by Close")
	}
}

// TestBoardSingleFlight: a post of a key whose job is unresolved joins it
// instead of creating a second one, and every waiter gets the one
// computation's value, the creator's uncached. The value is on disk before
// the job leaves the table, so the next post is a hit.
func TestBoardSingleFlight(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	w := b.Register(false)

	var fires atomic.Int32
	j, jw, ch := testJob("k", &fires)
	b.Post(j, jw)
	var joined []chan outcome
	for i := 0; i < 3; i++ {
		j2, jw2, ch2 := testJob("k", &fires)
		b.Post(j2, jw2)
		joined = append(joined, ch2)
	}
	if st := b.Stats(); st.Pending != 1 {
		t.Fatalf("pending = %d after four posts of one key, want 1", st.Pending)
	}
	wire, _, err := claimWire(context.Background(), b, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Fulfill(wire.LeaseID, wire.Token, []byte("once"), ""); err != nil {
		t.Fatal(err)
	}
	if o := waitOutcome(t, ch); o.err != nil || string(o.val) != "once" || o.cached {
		t.Errorf("creator outcome = (%q, %v, cached %v), want the value, uncached", o.val, o.err, o.cached)
	}
	for i, ch2 := range joined {
		if o := waitOutcome(t, ch2); o.err != nil || string(o.val) != "once" || !o.cached {
			t.Errorf("joiner %d outcome = (%q, %v, cached %v), want the value, cached", i, o.val, o.err, o.cached)
		}
	}
	if st := b.cache.Stats(); st.Waits != 3 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 3 waits / 1 miss", st)
	}

	late, lateW, chLate := testJob("k", &fires)
	b.Post(late, lateW)
	if o := waitOutcome(t, chLate); string(o.val) != "once" || !o.cached {
		t.Errorf("post after the commit = (%q, %v, cached %v), want a hit", o.val, o.err, o.cached)
	}
	if st := b.Stats(); st.Pending != 0 || fires.Load() != 5 {
		t.Errorf("pending = %d, notifications = %d; want 0 and one per waiter", st.Pending, fires.Load())
	}
}

// TestBoardFailReachesJoinersAndRetries: a failed job propagates its error
// to joiners, persists nothing, and the next post of the key creates a
// fresh job.
func TestBoardFailReachesJoinersAndRetries(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	w := b.Register(false)
	boom := errors.New("boom")

	j, jw, ch := testJob("k", nil)
	b.Post(j, jw)
	j2, jw2, ch2 := testJob("k", nil)
	b.Post(j2, jw2)
	wire, _, err := claimWire(context.Background(), b, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Fail(wire.LeaseID, wire.Token, boom); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]chan outcome{"creator": ch, "joiner": ch2} {
		if o := waitOutcome(t, c); !errors.Is(o.err, boom) || o.cached {
			t.Errorf("%s outcome = (%v, cached %v), want boom", name, o.err, o.cached)
		}
	}
	if _, ok := b.cache.lookup("k"); ok {
		t.Error("a failed job stored a value")
	}
	retry, retryW, _ := testJob("k", nil)
	b.Post(retry, retryW)
	if st, cs := b.Stats(), b.cache.Stats(); st.Pending != 1 || cs.Misses != 2 {
		t.Errorf("after a retry post: pending = %d, misses = %d; want a fresh job (1, 2)", st.Pending, cs.Misses)
	}
}

// TestBoardCancelDetachesOneWaiter: Cancel takes only the given waiter off a
// job. A job another waiter still wants keeps its lease, and its commit
// reaches that waiter; canceling a waiter twice notifies it once.
func TestBoardCancelDetachesOneWaiter(t *testing.T) {
	b := testBoard(t, 3)
	defer b.Close(nil)
	w := b.Register(false)
	skip := errors.New("skipped by fail-fast")

	var fires atomic.Int32
	j, jw, ch := testJob("k", &fires)
	b.Post(j, jw)
	j2, jw2, ch2 := testJob("k", nil)
	b.Post(j2, jw2)
	wire, _, err := claimWire(context.Background(), b, w)
	if err != nil {
		t.Fatal(err)
	}
	b.Cancel(j, jw, skip)
	b.Cancel(j, jw, skip)
	if o := waitOutcome(t, ch); !errors.Is(o.err, skip) {
		t.Errorf("canceled waiter = %v, want the skip", o.err)
	}
	if renewed, _, _ := b.Heartbeat(w, []string{wire.LeaseID}); len(renewed) != 1 {
		t.Fatal("the lease ended with a waiter still on the job")
	}
	if err := b.Fulfill(wire.LeaseID, wire.Token, []byte("v"), ""); err != nil {
		t.Fatalf("commit with a waiter left: %v", err)
	}
	if o := waitOutcome(t, ch2); o.err != nil || string(o.val) != "v" {
		t.Errorf("remaining waiter = (%q, %v), want the value", o.val, o.err)
	}
	if n := fires.Load(); n != 1 {
		t.Errorf("canceled waiter notified %d times, want once", n)
	}
}

// TestBoardCloseReleasesWedgedJoiner: a joiner of a job whose claimant never
// commits is still notified, by Close.
func TestBoardCloseReleasesWedgedJoiner(t *testing.T) {
	b := testBoard(t, 3)
	w := b.Register(false)
	j, jw, _ := testJob("k", nil)
	b.Post(j, jw)
	if _, _, err := claimWire(context.Background(), b, w); err != nil {
		t.Fatal(err) // and never committed
	}
	j2, jw2, ch2 := testJob("k", nil)
	b.Post(j2, jw2)
	cause := errors.New("hard drain")
	b.Close(cause)
	if o := waitOutcome(t, ch2); !errors.Is(o.err, errBoardClosed) || !errors.Is(o.err, cause) {
		t.Errorf("joiner outcome = %v, want errBoardClosed wrapping the cause", o.err)
	}
}
