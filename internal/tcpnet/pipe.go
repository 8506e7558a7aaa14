package tcpnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// pipeConn is one end of an in-memory duplex connection, one pipeHalf per
// direction, so CloseWrite half-closes as TCP does: the endpoint's graceful
// Close and crash drain rely on it. Writes are buffered and never wait for
// the peer's reader, like a socket's kernel buffer; net.Pipe's synchronous
// hand-off would cost a goroutine switch per frame header and payload,
// which on a CPU-saturated host queues the writer behind compute.
type pipeConn struct {
	in, out *pipeHalf
}

var _ meshConn = (*pipeConn)(nil)

// pipePair returns the two ends of a fresh in-memory duplex connection.
func pipePair() (a, b *pipeConn) {
	ab, ba := newPipeHalf(), newPipeHalf()
	return &pipeConn{in: ba, out: ab}, &pipeConn{in: ab, out: ba}
}

func (c *pipeConn) Read(p []byte) (int, error)  { return c.in.read(p) }
func (c *pipeConn) Write(p []byte) (int, error) { return c.out.write(p) }

// CloseWrite ends the outbound direction: the peer's reads drain what was
// written and then return io.EOF; this end can still read.
func (c *pipeConn) CloseWrite() error {
	c.out.close(false)
	return nil
}

// Close ends both directions: a pending local Read returns net.ErrClosed,
// the peer's reads drain and return io.EOF, and its writes fail.
func (c *pipeConn) Close() error {
	c.out.close(false)
	c.in.close(true)
	return nil
}

func (c *pipeConn) LocalAddr() net.Addr  { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr { return pipeAddr{} }

// SetDeadline sets the read deadline; writes never block, so a write
// deadline has nothing to bound.
func (c *pipeConn) SetDeadline(t time.Time) error     { return c.SetReadDeadline(t) }
func (c *pipeConn) SetReadDeadline(t time.Time) error { c.in.setDeadline(t); return nil }
func (c *pipeConn) SetWriteDeadline(time.Time) error  { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeHalf is one direction of a pipeConn: an unbounded byte queue with one
// writer and one reader.
type pipeHalf struct {
	mu       sync.Mutex
	ready    sync.Cond // signalled on data, close and read-deadline expiry
	buf      []byte
	r        int       // buf[r:] is unread
	eof      bool      // write side closed: reads drain buf, then io.EOF
	broken   bool      // read side closed: reads and writes fail
	deadline time.Time // read deadline; zero means none
	timer    *time.Timer
}

func newPipeHalf() *pipeHalf {
	h := &pipeHalf{}
	h.ready.L = &h.mu
	return h
}

func (h *pipeHalf) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		switch {
		case h.broken:
			return 0, net.ErrClosed
		case h.r < len(h.buf):
			n := copy(p, h.buf[h.r:])
			if h.r += n; h.r == len(h.buf) {
				h.buf, h.r = h.buf[:0], 0
			}
			return n, nil
		case h.eof:
			return 0, io.EOF
		case !h.deadline.IsZero() && !time.Now().Before(h.deadline):
			return 0, os.ErrDeadlineExceeded
		}
		h.ready.Wait()
	}
}

func (h *pipeHalf) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.eof || h.broken {
		return 0, io.ErrClosedPipe
	}
	h.buf = append(h.buf, p...)
	h.ready.Broadcast()
	return len(p), nil
}

// close ends the write side, or with broken the read side too.
func (h *pipeHalf) close(broken bool) {
	h.mu.Lock()
	h.eof = true
	h.broken = h.broken || broken
	h.ready.Broadcast()
	h.mu.Unlock()
}

func (h *pipeHalf) setDeadline(t time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.deadline = t
	if h.timer != nil {
		h.timer.Stop()
	}
	if !t.IsZero() {
		h.timer = time.AfterFunc(time.Until(t), func() {
			h.mu.Lock()
			h.ready.Broadcast()
			h.mu.Unlock()
		})
	}
}

// pipeMesh starts one endpoint per Config, fully meshed over in-memory
// pipes. There is no rendezvous and no handshake: every pair is connected
// in place, so the endpoints are running on return. Each Config supplies
// P, Timeout, IDs and Injector; Rendezvous, Host and Gen are unused.
func pipeMesh(cfgs []Config) []*Endpoint {
	p := len(cfgs)
	eps := make([]*Endpoint, p)
	for rank, cfg := range cfgs {
		eps[rank] = newEndpoint(p, rank, cfg.Timeout)
		eps[rank].configure(cfg, rank)
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			a, b := pipePair()
			if err := errors.Join(eps[i].register(j, a), eps[j].register(i, b)); err != nil {
				panic(fmt.Sprintf("tcpnet: in-memory mesh: %v", err)) // fresh endpoints never refuse
			}
		}
	}
	for _, e := range eps {
		e.run()
	}
	return eps
}
