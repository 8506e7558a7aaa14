package tcpnet

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// TestPipeConnHalfClose: CloseWrite delivers every queued byte and then
// io.EOF to the peer, while the reverse direction keeps working.
func TestPipeConnHalfClose(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	want := "every queued byte"
	for _, part := range []string{"every ", "queued ", "byte"} {
		if _, err := a.Write([]byte(part)); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := a.CloseWrite(); err != nil {
		t.Fatalf("CloseWrite: %v", err)
	}
	if _, err := a.Write([]byte("late")); err == nil {
		t.Fatal("write after CloseWrite succeeded")
	}
	got, err := io.ReadAll(b) // ReadAll stops cleanly only at io.EOF
	if err != nil || string(got) != want {
		t.Fatalf("peer read %q, %v; want %q then EOF", got, err, want)
	}
	if n, err := b.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("read after EOF = %d, %v; want 0, io.EOF", n, err)
	}

	if _, err := b.Write([]byte("reverse")); err != nil {
		t.Fatalf("reverse write after CloseWrite: %v", err)
	}
	buf := make([]byte, len("reverse"))
	if _, err := io.ReadFull(a, buf); err != nil || string(buf) != "reverse" {
		t.Fatalf("reverse read after CloseWrite: %q, %v", buf, err)
	}
}

// TestPipeConnCloseUnblocksRead: Close must release a Read blocked on the
// same end, and the peer then sees the connection gone in both directions.
func TestPipeConnCloseUnblocksRead(t *testing.T) {
	a, b := pipePair()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		_, err := a.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the Read block
	a.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Read on a closed conn returned no error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the pending Read")
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("peer read after Close = %v, want io.EOF", err)
	}
	if _, err := b.Write([]byte{1}); err == nil {
		t.Fatal("peer write after Close succeeded")
	}
}

// TestPipeConnReadDeadline: a read deadline fires os.ErrDeadlineExceeded,
// as on a socket.
func TestPipeConnReadDeadline(t *testing.T) {
	a, b := pipePair()
	defer a.Close()
	defer b.Close()
	if err := a.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read past deadline = %v, want os.ErrDeadlineExceeded", err)
	}
}

// runMem runs worker on p endpoints meshed over in-memory pipes.
func runMem(p int, worker func(rank int, ep comm.Endpoint)) *comm.Report {
	return MemBackend(nil).Run(p, worker)
}

// TestStatsCountRealBytes: BytesRecv is the serialized payload size on
// the connection (tag + encoded body), not the α-β accounted size, and
// excludes the frame header.
func TestStatsCountRealBytes(t *testing.T) {
	runMem(2, func(rank int, ep comm.Endpoint) {
		if rank == 0 {
			ep.Send(1, []float32{1, 2, 3}, 12)
			return
		}
		ep.Recv(0)
		s := ep.Stats()
		if s.Rounds != 1 {
			t.Errorf("rounds = %d, want 1", s.Rounds)
		}
		// tag + uvarint count + 3×4 value bytes = 14.
		if s.BytesRecv != 14 {
			t.Errorf("real BytesRecv = %d, want 14", s.BytesRecv)
		}
		if s.CommTime <= 0 {
			t.Errorf("CommTime = %g, want > 0 (wall-measured)", s.CommTime)
		}
	})
}

// TestNestedOverlapPanics pins the stream contract.
func TestNestedOverlapPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "cannot nest") {
			t.Fatalf("expected nesting panic, got %v", r)
		}
	}()
	runMem(1, func(rank int, ep comm.Endpoint) {
		ep.Overlap(func(sep comm.Endpoint) {
			sep.Overlap(func(comm.Endpoint) {})
		})
		ep.Join()
	})
}

// TestJoinWithoutOverlapIsNoOp: serial code paths may call Join freely.
func TestJoinWithoutOverlapIsNoOp(t *testing.T) {
	runMem(1, func(rank int, ep comm.Endpoint) {
		ep.Compute(1)
		ep.Join()
		if s := ep.Stats(); s.ExposedComm != 0 || s.OverlapSaved != 0 {
			t.Errorf("no-op Join changed stats: %+v", s)
		}
	})
}

// TestSyncClockBarrier smoke-tests the cost-free barrier: stats stay
// untouched and nothing deadlocks across a few rounds.
func TestSyncClockBarrier(t *testing.T) {
	rep := runMem(5, func(rank int, ep comm.Endpoint) {
		for i := 0; i < 3; i++ {
			ep.SyncClock()
		}
	})
	for w, s := range rep.PerWorker {
		if s.Rounds != 0 || s.BytesRecv != 0 || s.MsgsSent != 0 {
			t.Errorf("worker %d: SyncClock charged stats %+v", w, s)
		}
	}
}

// elasticWorkload is a miniature of the elastic trainer's carry protocol:
// each worker accumulates the all-reduced sum of (ID+1) over `iters`
// synchronous rounds, committing state only after the barrier passes — so
// a generation that dies mid-round resumes from the last globally
// completed iteration, exactly like the model/optimizer snapshots.
type elasticWorkload struct {
	iters  int
	states map[int]*struct{ iter, acc int }
	// before, when set, runs at the start of every iteration (fault hook).
	before func(m comm.Membership, iter int)
}

func newElasticWorkload(p, iters int) *elasticWorkload {
	w := &elasticWorkload{iters: iters, states: map[int]*struct{ iter, acc int }{}}
	for id := 0; id < p; id++ {
		w.states[id] = &struct{ iter, acc int }{}
	}
	return w
}

func (w *elasticWorkload) run(m comm.Membership, ep comm.Endpoint) {
	st := w.states[m.ID]
	for it := st.iter; it < w.iters; it++ {
		if w.before != nil {
			w.before(m, it)
		}
		sum := m.ID + 1
		for peer := 0; peer < m.P; peer++ {
			if peer != m.Rank {
				ep.Send(peer, float64(m.ID+1), 8)
			}
		}
		for peer := 0; peer < m.P; peer++ {
			if peer != m.Rank {
				v, _ := ep.Recv(peer)
				sum += int(v.(float64))
			}
		}
		next := st.acc + sum
		ep.SyncClock() // may panic; st is only committed past the barrier
		st.iter, st.acc = it+1, next
	}
}

// runElastic drives w through the in-memory elastic driver under sched.
func runElastic(p int, sched *chaos.Schedule, opts comm.ElasticOptions, w *elasticWorkload) (*comm.Report, []comm.Recovery, error) {
	return MemBackend(sched).(comm.ElasticBackend).RunElastic(p, opts, w.run)
}

func TestRunElasticCrashShrinksAndResumes(t *testing.T) {
	sched, err := chaos.Parse("crash:rank=2,iter=2")
	if err != nil {
		t.Fatal(err)
	}
	w := newElasticWorkload(3, 5)
	rep, recs, runErr := runElastic(3, sched, comm.ElasticOptions{MinP: 2}, w)
	if runErr != nil {
		t.Fatalf("elastic run failed: %v", runErr)
	}
	if rep == nil || len(rep.PerWorker) != 2 {
		t.Fatalf("final report not for the shrunk membership: %+v", rep)
	}
	if len(recs) != 1 {
		t.Fatalf("recoveries: %+v", recs)
	}
	r := recs[0]
	if r.Gen != 1 || r.P != 2 || len(r.Lost) != 1 || r.Lost[0] != 2 {
		t.Fatalf("recovery record: %+v", r)
	}
	if !strings.Contains(r.Cause, "(scheduled)") {
		t.Fatalf("recovery cause does not name the scheduled crash: %q", r.Cause)
	}
	// Iterations 0,1 ran at P=3 (sum 6); the crash fires at the barrier
	// ending iteration 2, so no one passes it and iterations 2,3,4 all
	// (re)run at P=2 (sum 3). Survivors must agree exactly.
	want := 2*6 + 3*3
	for _, id := range []int{0, 1} {
		if got := w.states[id].acc; got != want {
			t.Errorf("worker %d acc = %d, want %d", id, got, want)
		}
		if w.states[id].iter != 5 {
			t.Errorf("worker %d stopped at iter %d", id, w.states[id].iter)
		}
	}
	if w.states[2].iter != 2 {
		t.Errorf("crashed worker committed %d iterations, want 2", w.states[2].iter)
	}
}

func TestRunElasticTransientFaultRetriesFullMembership(t *testing.T) {
	// Frame ordinals on link 0→1: each iteration emits one data frame and
	// one barrier token, so frame 4 is iteration 2's payload.
	sched, err := chaos.Parse("drop:rank=0,peer=1,frame=4")
	if err != nil {
		t.Fatal(err)
	}
	w := newElasticWorkload(3, 4)
	_, recs, runErr := runElastic(3, sched, comm.ElasticOptions{MinP: 2, MaxRestarts: 2}, w)
	if runErr != nil {
		t.Fatalf("elastic run failed: %v", runErr)
	}
	if len(recs) != 1 || recs[0].P != 3 || len(recs[0].Lost) != 0 {
		t.Fatalf("transient fault must retry at full membership: %+v", recs)
	}
	if !strings.Contains(recs[0].Cause, "chaos:") {
		t.Fatalf("cause does not name the schedule entry: %q", recs[0].Cause)
	}
	// All four iterations ultimately complete at P=3; the injector's frame
	// counter carried across the restart, so the one-shot drop never
	// re-fired.
	for id := 0; id < 3; id++ {
		if got := w.states[id].acc; got != 4*6 {
			t.Errorf("worker %d acc = %d, want %d", id, got, 4*6)
		}
	}
}

func TestRunElasticPersistentFaultFailsFastWithCause(t *testing.T) {
	sched, err := chaos.Parse("partition:rank=1,peer=0,frame=2")
	if err != nil {
		t.Fatal(err)
	}
	w := newElasticWorkload(2, 4)
	_, _, runErr := runElastic(2, sched, comm.ElasticOptions{MaxRestarts: 2}, w)
	if runErr == nil {
		t.Fatal("persistent partition must exhaust restarts and fail")
	}
	if !strings.Contains(runErr.Error(), "partition") {
		t.Fatalf("error does not name the injected root cause: %v", runErr)
	}
}

func TestRunElasticDelayIsBenign(t *testing.T) {
	sched, err := chaos.Parse("delay:rank=0,peer=1,frame=0,dur=2ms")
	if err != nil {
		t.Fatal(err)
	}
	w := newElasticWorkload(2, 3)
	_, recs, runErr := runElastic(2, sched, comm.ElasticOptions{}, w)
	if runErr != nil || len(recs) != 0 {
		t.Fatalf("delay must be benign: err=%v recs=%+v", runErr, recs)
	}
	for id := 0; id < 2; id++ {
		if got := w.states[id].acc; got != 3*3 {
			t.Errorf("worker %d acc = %d, want %d", id, got, 3*3)
		}
	}
}

func TestRunElasticBelowMinPFails(t *testing.T) {
	sched, err := chaos.Parse("crash:rank=0,iter=1;crash:rank=1,iter=1")
	if err != nil {
		t.Fatal(err)
	}
	w := newElasticWorkload(3, 3)
	_, _, runErr := runElastic(3, sched, comm.ElasticOptions{MinP: 2, MaxRestarts: 3}, w)
	if runErr == nil {
		t.Fatal("shrinking below MinP must fail fast")
	}
	if !strings.Contains(runErr.Error(), "MinP") {
		t.Fatalf("error does not explain the MinP violation: %v", runErr)
	}
}

// TestRunElasticGenuinePanicNamesRootCause: when a worker body panics for
// a reason no schedule injected, the error and the recovery record must
// name that panic — not the poisoned-fabric panics its abort provokes in
// lower-ranked peers blocked on it. Both mesh kinds run the same driver.
func TestRunElasticGenuinePanicNamesRootCause(t *testing.T) {
	for _, bk := range []struct {
		name string
		b    comm.Backend
	}{
		{"pipes", MemBackend(nil)},
		{"loopback", LocalBackend(10 * time.Second)},
	} {
		t.Run(bk.name, func(t *testing.T) {
			w := newElasticWorkload(3, 3)
			w.before = func(m comm.Membership, iter int) {
				if m.ID == 2 && iter == 1 {
					panic("boom")
				}
			}
			_, recs, err := bk.b.(comm.ElasticBackend).RunElastic(3, comm.ElasticOptions{MaxRestarts: 1}, w.run)
			if err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("error does not name the genuine panic: %v", err)
			}
			if len(recs) != 1 || !strings.Contains(recs[0].Cause, "worker 2: boom") {
				t.Fatalf("recovery cause does not name the genuine panic: %+v", recs)
			}
		})
	}
}

// TestRunNamesCommStreamPanic: a panic inside an Overlap body aborts its
// endpoint from the stream goroutine, before its worker re-panics in Join.
// Run must name the stream panic, not the cascade it provokes in the peer
// blocked on that worker.
func TestRunNamesCommStreamPanic(t *testing.T) {
	for _, b := range []comm.Backend{MemBackend(nil), LocalBackend(10 * time.Second)} {
		t.Run(b.Name(), func(t *testing.T) {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "worker 0 (comm stream): boom") {
					t.Fatalf("Run panicked with %v, want the stream panic", r)
				}
			}()
			b.Run(2, func(rank int, ep comm.Endpoint) {
				if rank == 1 {
					ep.Recv(0) // never fed; unwinds when rank 0's stream dies
					return
				}
				ep.Overlap(func(comm.Endpoint) { panic("boom") })
				ep.Join()
			})
		})
	}
}
