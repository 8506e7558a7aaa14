package comm

import (
	"sync"
	"testing"
	"time"
)

func TestFifoOrderAndDrainAfterClose(t *testing.T) {
	q := NewFifo[int]()
	for i := 0; i < 100; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d on open queue refused", i)
		}
	}
	q.Close()
	if q.Push(100) {
		t.Fatal("push accepted after Close")
	}
	for i := 0; i < 100; i++ {
		x, ok := q.Pop()
		if !ok || x != i {
			t.Fatalf("pop %d: got (%d, %v)", i, x, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on a drained closed queue reported an item")
	}
}

func TestFifoTryPopNeverBlocks(t *testing.T) {
	q := NewFifo[string]()
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on an empty open queue reported an item")
	}
	q.Push("x")
	if x, ok := q.TryPop(); !ok || x != "x" {
		t.Fatalf("TryPop: got (%q, %v)", x, ok)
	}
}

func TestFifoCloseWakesBlockedPop(t *testing.T) {
	q := NewFifo[int]()
	done := make(chan bool)
	go func() {
		_, ok := q.Pop()
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond) // let the Pop block
	q.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Pop unblocked by Close reported an item")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop still blocked after Close")
	}
}

// TestFifoReusesBackingArray pins the drain-compaction behavior: a queue
// that is filled and drained repeatedly must not march its consumed prefix
// forward forever (the ring-rewind keeps steady-state pushes
// allocation-free, which the transport hot paths rely on).
func TestFifoReusesBackingArray(t *testing.T) {
	q := NewFifo[int]()
	for round := 0; round < 3; round++ {
		for i := 0; i < 8; i++ {
			q.Push(i)
		}
		for i := 0; i < 8; i++ {
			q.TryPop()
		}
	}
	q.mu.Lock()
	head, length, capacity := q.head, len(q.items), cap(q.items)
	q.mu.Unlock()
	if head != 0 || length != 0 {
		t.Fatalf("drained queue not rewound: head=%d len=%d", head, length)
	}
	if capacity > 8 {
		t.Fatalf("backing array grew to %d across drain cycles; rewind is not reusing it", capacity)
	}
}

func TestStreamLaneRunsBodiesInOrder(t *testing.T) {
	l := NewStreamLane(func(any) {})
	var mu sync.Mutex
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		if !l.Launch(func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		}) {
			t.Fatalf("launch %d refused before shutdown", i)
		}
	}
	exposed, busy, err := l.Join()
	if err != nil {
		t.Fatalf("join returned err %v", err)
	}
	if exposed < 0 || busy < 0 {
		t.Fatalf("negative accounting: exposed=%v busy=%v", exposed, busy)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("bodies ran out of launch order: got[%d] = %d", i, v)
		}
	}
	l.Shutdown()
	if l.Launch(func() {}) {
		t.Fatal("launch accepted after Shutdown")
	}
}

// TestStreamLanePanicOrdering pins the poison protocol: the panic value is
// recorded for Join before the hook runs (the hook's cascade must not mask
// the root cause), the hook runs on the stream goroutine, and Join clears
// the error for the next round.
func TestStreamLanePanicOrdering(t *testing.T) {
	type event struct {
		r        any
		recorded bool
	}
	events := make(chan event, 1)
	var l *StreamLane
	l = NewStreamLane(func(r any) {
		l.mu.Lock()
		recorded := l.err != nil
		l.mu.Unlock()
		events <- event{r: r, recorded: recorded}
	})
	l.Launch(func() { panic("boom") })
	_, _, err := l.Join()
	if err != "boom" {
		t.Fatalf("Join err = %v, want boom", err)
	}
	ev := <-events
	if ev.r != "boom" {
		t.Fatalf("hook saw %v, want boom", ev.r)
	}
	if !ev.recorded {
		t.Fatal("hook ran before the panic was recorded: a poison cascade could mask the root cause")
	}
	if _, _, err := l.Join(); err != nil {
		t.Fatalf("second Join returned stale err %v", err)
	}
	l.Shutdown()
}

// TestStreamLanePoisonFirstCauseWinsUnderCascade models the full backend
// cascade around a stream-body panic, under the race detector: the hook
// (tcpnet's abortConns) records the root cause and
// closes the queues; that unblocks the worker's main goroutine, which
// panics on the poisoned queue and calls its own Abort concurrently with
// the stream goroutine still unwinding. The invariant pinned here is the
// one the whole failure model rests on: because StreamLane invokes the
// hook — which records — BEFORE the panic unblocks anyone, the first
// recorded cause is always the stream body's root cause, never the
// cascade's, on every interleaving.
func TestStreamLanePoisonFirstCauseWinsUnderCascade(t *testing.T) {
	const root = "root cause: worker 3 exploded"
	for iter := 0; iter < 200; iter++ {
		var mu sync.Mutex
		var first string
		record := func(cause string) { // first writer wins, like peer.fail
			mu.Lock()
			if first == "" {
				first = cause
			}
			mu.Unlock()
		}
		q := NewFifo[int]()
		l := NewStreamLane(func(r any) {
			// The backend hook: record the root cause, then poison the
			// queues (which unblocks the main goroutine below).
			record(r.(string))
			q.Close()
		})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the worker's main goroutine, blocked mid-collective
			defer wg.Done()
			if _, ok := q.Pop(); !ok {
				// Its recover path calls Abort with the cascade cause,
				// racing the stream goroutine's own unwinding.
				record("cascade: recv on poisoned fabric")
			}
		}()
		l.Launch(func() { panic(root) })
		if _, _, err := l.Join(); err != root {
			t.Fatalf("iter %d: Join err = %v, want root cause", iter, err)
		}
		wg.Wait()
		l.Shutdown()
		mu.Lock()
		got := first
		mu.Unlock()
		if got != root {
			t.Fatalf("iter %d: first recorded cause %q; the cascade masked the root", iter, got)
		}
	}
}

// TestStreamLaneJoinWithoutLaunch pins the serial-schedule path: a Join
// with no pending work returns zeros without ever starting the goroutine.
func TestStreamLaneJoinWithoutLaunch(t *testing.T) {
	l := NewStreamLane(func(any) {})
	exposed, busy, err := l.Join()
	if busy != 0 || err != nil {
		t.Fatalf("idle Join returned busy=%v err=%v", busy, err)
	}
	_ = exposed
	if l.tasks != nil {
		t.Fatal("idle Join started the stream goroutine")
	}
	l.Shutdown() // must be a no-op without a started stream
}
