package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spardl/internal/chaos"
	"spardl/internal/comm"
	"spardl/internal/sparse"
)

// message is one frame in flight between the queues and the socket
// goroutines. accounted carries the sender's α-β byte accounting (returned
// by Recv); len(buf) is what the transport really moved.
type message struct {
	kind      byte
	buf       []byte
	accounted int
}

// maxFrameBytes bounds a single data frame's payload. Legitimate frames
// top out around one dense gradient vector (a few MB at paper scale); the
// cap exists so a corrupt length prefix cannot demand an absurd
// allocation.
const maxFrameBytes = 1 << 30

// bufPool recycles send-side serialization buffers: Send marshals into a
// pooled buffer whose ownership rides the queue into the writer goroutine,
// which returns it after the scatter/gather socket write consumes it. The
// receive side does not pool: payload bytes land directly in the
// endpoint's receive arena and are reclaimed wholesale by the per-
// iteration rotation (see Endpoint.recvArena).
var bufPool sparse.SlicePool[byte]

func getBuf(n int) []byte { return bufPool.Get(n) }
func putBuf(b []byte)     { bufPool.Put(b) }

// meshConn is the connection surface the per-peer goroutines need: a byte
// stream with independent write-side shutdown. *net.TCPConn implements it
// directly (keeping the writev fast path), pipeConn is its in-memory
// counterpart, and chaosConn wraps either to inject scheduled faults into
// the outbound frame stream.
type meshConn interface {
	net.Conn
	CloseWrite() error
}

// peer is one remote worker: the pair connection plus the inbound and
// outbound FIFO queues and their goroutines' failure cause.
type peer struct {
	rank  int
	conn  meshConn
	recvq *comm.Fifo[message]
	sendq *comm.Fifo[message]

	// arena owns this peer's inbound payload bytes: the reader goroutine
	// carves frame-body destinations out of it (alloc) and SyncClock
	// rotates it once per iteration. Sharding the storage per peer keeps
	// the lock a reader-vs-rotation affair — bump allocations measured in
	// nanoseconds — so no reader ever stalls behind another peer's reader
	// or behind Recv's decode.
	arenaMu sync.Mutex
	arena   *sparse.Arena

	mu    sync.Mutex
	cause string // first failure involving this peer; "" while healthy
}

// alloc carves an n-byte payload destination out of the peer's receive
// arena for its reader goroutine; arenaMu serializes it against
// SyncClock's rotation.
func (pr *peer) alloc(n int) []byte {
	pr.arenaMu.Lock()
	b := pr.arena.Bytes(n)[:n]
	pr.arenaMu.Unlock()
	return b
}

// fail records cause (first writer wins) and closes the inbound queue so
// blocked and future Recvs unwind instead of hanging.
func (pr *peer) fail(cause string) {
	pr.mu.Lock()
	if pr.cause == "" {
		pr.cause = cause
	}
	pr.mu.Unlock()
	pr.recvq.Close()
}

// why returns the recorded failure cause, or a generic disconnect note.
func (pr *peer) why() string {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if pr.cause != "" {
		return pr.cause
	}
	return fmt.Sprintf("worker %d disconnected", pr.rank)
}

// Endpoint is one worker's handle on the TCP fabric; it implements
// comm.Endpoint with wall-clock time and real serialized byte counts.
type Endpoint struct {
	p, rank int
	timeout time.Duration
	start   time.Time
	peers   []*peer    // indexed by rank; peers[rank] == nil
	regMu   sync.Mutex // serializes mesh registration against abortConns
	closed  atomic.Bool
	readers sync.WaitGroup
	writers sync.WaitGroup

	mu    sync.Mutex // guards stats (main goroutine + stream goroutine)
	stats comm.Stats

	// lane is the communication stream behind Overlap/Join (shared
	// implementation in internal/comm). Its poison hook is abortConns,
	// never Abort: the hook runs ON the stream goroutine, and Abort waits
	// for the stream to drain — from inside it, that would deadlock.
	lane *comm.StreamLane

	// Elastic/chaos identity: id is this worker's stable generation-0 rank,
	// ids maps every current rank to its stable ID (nil = identity, correct
	// for generation 0), and iters counts SyncClock barriers passed on this
	// fabric — the ordinal scheduled crashes key on. inj, when non-nil,
	// injects this worker's scheduled faults into its outbound streams
	// (register wraps each mesh connection in a chaosConn); onCrash, when
	// non-nil, overrides what a scheduled crash does after the outbound
	// drain (forked workers exit; goroutine workers panic with
	// chaos.Crashed).
	id      int
	ids     []int
	inj     chaos.Injector
	iters   int
	onCrash func(iter int)

	chaosMu    sync.Mutex
	chaosCause string // first scheduled link fault fired on this endpoint

	// recordCause, when non-nil, records an abort's cause before
	// abortConns severs anything. The in-process driver sets it to its
	// first-failure recorder, so a comm-stream panic — which aborts before
	// its worker re-panics in Join — is timed by the abort, not by the
	// cascade the abort provokes.
	recordCause func(cause string)

	// decodeArena owns everything Recv decodes from inbound payload bytes
	// (chunk headers, pointer slices, wrapper structs); the decoded values
	// alias the per-peer arena slabs they were parsed from, and both arena
	// families rotate together at SyncClock, so the aliased bytes outlive
	// the values. It is deliberately unlocked: the Overlap contract keeps
	// Recv and SyncClock on a single goroutine at a time (main, or the
	// comm stream between Overlap and Join), so the decoder never races
	// itself — sparse.Arena's single-owner design, applied literally.
	decodeArena *sparse.Arena
}

var _ comm.Endpoint = (*Endpoint)(nil)

func newEndpoint(p, rank int, timeout time.Duration) *Endpoint {
	e := &Endpoint{p: p, rank: rank, id: rank, timeout: timeout, start: time.Now(),
		peers: make([]*peer, p), decodeArena: sparse.NewArena()}
	for r := 0; r < p; r++ {
		if r != rank {
			e.peers[r] = &peer{rank: r, recvq: comm.NewFifo[message](), sendq: comm.NewFifo[message](),
				arena: sparse.NewArena()}
		}
	}
	e.lane = comm.NewStreamLane(func(r any) {
		e.abortConns(fmt.Sprintf("worker %d (comm stream): %v", e.id, r))
	})
	return e
}

// register installs an established mesh connection for peer rank. It owns
// conn: on a duplicate, an invalid slot, or an endpoint already closed
// (mesh failed elsewhere and Abort ran while this side was still
// connecting), the connection is closed and an error returned — no
// established socket is ever left stranded to hang a peer.
func (e *Endpoint) register(rank int, conn meshConn) error {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	if e.closed.Load() {
		conn.Close()
		return fmt.Errorf("tcpnet: endpoint closed during mesh establishment")
	}
	pr := e.peers[rank]
	if pr == nil || pr.conn != nil {
		conn.Close()
		return fmt.Errorf("tcpnet: duplicate mesh connection for worker %d", rank)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	if e.inj != nil {
		conn = &chaosConn{meshConn: conn, inj: e.inj, peerID: e.idOf(rank), note: e.noteChaos}
	}
	pr.conn = conn
	return nil
}

// configure applies the elastic/chaos half of a Config to the endpoint.
// Must run before mesh establishment: register consults the injector when
// wrapping connections.
func (e *Endpoint) configure(cfg Config, rank int) {
	e.ids = cfg.IDs
	e.id = e.idOf(rank)
	e.inj = cfg.Injector
	e.onCrash = cfg.OnCrash
}

// idOf maps a current rank to its stable generation-0 ID.
func (e *Endpoint) idOf(rank int) int {
	if e.ids == nil {
		return rank
	}
	return e.ids[rank]
}

// ID returns this worker's stable identity — its generation-0 rank, which
// elastic re-rendezvous preserves across membership changes.
func (e *Endpoint) ID() int { return e.id }

// noteChaos records the first scheduled link fault this endpoint's chaos
// wrappers fired. The panics a severed link provokes are cascade symptoms
// with racy messages; this is the named root cause an elastic driver
// prefers when classifying the generation's failure.
func (e *Endpoint) noteChaos(cause string) {
	e.chaosMu.Lock()
	if e.chaosCause == "" {
		e.chaosCause = cause
	}
	e.chaosMu.Unlock()
}

// ChaosCause returns the first scheduled link fault fired on this
// endpoint's connections, or "" when none fired.
func (e *Endpoint) ChaosCause() string {
	e.chaosMu.Lock()
	defer e.chaosMu.Unlock()
	return e.chaosCause
}

// crash executes a scheduled chaos crash at the current barrier. The
// outbound queues close and the writers drain first — every frame of
// completed iterations is flushed and the streams half-closed, so peers
// see EOF only after all the crasher's data, exactly what a killed
// process's kernel buffers deliver — and no barrier token for the crash
// iteration is ever sent, which pins every survivor's resume point at this
// iteration on every substrate. Then the worker dies: forked processes via
// onCrash (exit), goroutine workers by panicking with chaos.Crashed.
func (e *Endpoint) crash() {
	for _, pr := range e.peers {
		if pr != nil {
			pr.sendq.Close()
		}
	}
	done := make(chan struct{})
	go func() { e.writers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(e.timeout):
	}
	if e.onCrash != nil {
		e.onCrash(e.iters)
	}
	panic(chaos.Crashed{ID: e.id, Iter: e.iters})
}

// run starts the per-peer socket goroutines; the clock starts here, once
// the mesh is fully established.
func (e *Endpoint) run() {
	e.start = time.Now()
	for _, pr := range e.peers {
		if pr == nil {
			continue
		}
		e.readers.Add(1)
		e.writers.Add(1)
		go e.reader(pr)
		go e.writer(pr)
	}
}

// reader moves frames from the peer's socket into the inbound queue until
// the stream ends. Any end — graceful close, crash, reset — closes the
// queue with a cause, so Recv surfaces a clean error rather than a hang;
// on balanced schedules nobody Recvs from a gracefully-finished peer
// again, so the cause is never observed in healthy runs.
func (e *Endpoint) reader(pr *peer) {
	defer e.readers.Done()
	fr := newFrameReader(pr.conn, pr.alloc)
	for {
		m, err := fr.next()
		if err != nil {
			switch {
			case e.closed.Load():
				pr.fail(fmt.Sprintf("worker %d: endpoint closed", pr.rank))
			case err == io.EOF:
				pr.fail(fmt.Sprintf("worker %d disconnected", pr.rank))
			default:
				pr.fail(fmt.Sprintf("worker %d connection failed: %v", pr.rank, err))
			}
			return
		}
		if !pr.recvq.Push(m) {
			return // inbound queue closed (Abort); the arena reclaims m.buf
		}
	}
}

// writer drains the outbound queue onto the socket through a
// scatter/gather batch: frames accumulate while the sender is bursting and
// one vectored write moves header and payload slices kernel-ward with no
// intermediate copy, flushing whenever the queue momentarily empties (the
// latency-correct policy: batch while the sender bursts, write before
// blocking). Queue closure — Close's graceful path — flushes and
// half-closes the connection so the peer's reader sees EOF only after
// every queued frame; the final flush and CloseWrite errors surface
// through pr.fail rather than being dropped.
func (e *Endpoint) writer(pr *peer) {
	defer e.writers.Done()
	fw := newFrameWriter(pr.conn)
	fail := func(err error) {
		pr.fail(fmt.Sprintf("send to worker %d failed: %v", pr.rank, err))
		pr.sendq.Close()
		for { // release any queued buffers
			m, ok := pr.sendq.Pop()
			if !ok {
				return
			}
			if m.buf != nil {
				putBuf(m.buf)
			}
		}
	}
	for {
		m, ok := pr.sendq.TryPop()
		if !ok {
			if err := fw.flush(); err != nil {
				fail(err)
				return
			}
			if m, ok = pr.sendq.Pop(); !ok {
				// Graceful close. The batch is provably empty — flushed
				// above, and nothing was queued since — but a final flush
				// guards the invariant, and its error (and CloseWrite's)
				// goes through pr.fail instead of vanishing: a peer that
				// missed queued frames must find a cause, not a clean EOF.
				if err := fw.flush(); err != nil {
					fail(err)
					return
				}
				if err := pr.conn.CloseWrite(); err != nil {
					pr.fail(fmt.Sprintf("closing stream to worker %d: %v", pr.rank, err))
				}
				return
			}
		}
		fw.queue(m)
		if fw.frames >= writerBatchFrames || fw.bytes >= writerBatchBytes {
			if err := fw.flush(); err != nil {
				fail(err)
				return
			}
		}
	}
}

const (
	// frameHdrMax bounds one frame's header: kind byte plus two uvarints
	// (accounted size, payload length).
	frameHdrMax = 1 + 2*binary.MaxVarintLen64
	// writerBatchFrames / writerBatchBytes bound one scatter/gather batch:
	// enough frames to amortize the vectored-write syscall across a burst
	// of small messages, small enough to keep per-connection buffering flat
	// and the iovec list well under the kernel's limit.
	writerBatchFrames = 64
	writerBatchBytes  = 256 << 10
)

// frameWriter batches outbound frames into one scatter/gather write:
// queue appends each frame's header to a shared header strip and its
// payload by reference, and flush hands the whole net.Buffers vector to
// the TCP connection's WriteTo (writev on a *net.TCPConn) — the send
// path's zero-copy half: payload bytes move pooled-buffer→kernel with no
// bufio memcpy between.
type frameWriter struct {
	conn   io.Writer   // *net.TCPConn (writev), a pipeConn, or a chaosConn wrapper
	batch  net.Buffers // scatter list for WriteTo; rebuilt every batch
	owned  [][]byte    // pooled payload buffers, released after the write
	hdrs   []byte      // header bytes of queued frames (batch subslices it)
	frames int
	bytes  int
}

func newFrameWriter(conn io.Writer) *frameWriter {
	return &frameWriter{
		conn:  conn,
		batch: make(net.Buffers, 0, 2*writerBatchFrames),
		owned: make([][]byte, 0, writerBatchFrames),
		hdrs:  make([]byte, 0, writerBatchFrames*frameHdrMax),
	}
}

// queue adds m to the current batch. The pooled payload buffer's ownership
// moves into fw.owned: it stays alive, unmodified, until flush's socket
// write has consumed it. The header strip is pre-sized for a full batch,
// so appends never reallocate and the subslices in fw.batch stay valid.
//
//spardl:hotpath
func (fw *frameWriter) queue(m message) {
	h := len(fw.hdrs)
	fw.hdrs = appendFrameHeader(fw.hdrs, m)
	fw.batch = append(fw.batch, fw.hdrs[h:len(fw.hdrs):len(fw.hdrs)])
	fw.bytes += len(fw.hdrs) - h
	if m.buf != nil {
		if len(m.buf) > 0 {
			fw.batch = append(fw.batch, m.buf)
			fw.bytes += len(m.buf)
		}
		fw.owned = append(fw.owned, m.buf)
	}
	fw.frames++
}

// flush writes the batch with one vectored write and releases the payload
// buffers it consumed. The batch is reset even on error: the writer fails
// the peer and drains, so the queued frames are dead either way.
//
//spardl:hotpath
func (fw *frameWriter) flush() error {
	if fw.frames == 0 {
		return nil
	}
	// WriteTo consumes (advances and re-slices) the vector it is handed,
	// so give it a copy of the slice header; the backing array is ours
	// and is rebuilt from scratch next batch.
	bufs := fw.batch
	_, err := bufs.WriteTo(fw.conn)
	for i := range fw.owned {
		putBuf(fw.owned[i])
		fw.owned[i] = nil
	}
	fw.owned = fw.owned[:0]
	fw.batch = fw.batch[:0]
	fw.hdrs = fw.hdrs[:0]
	fw.frames, fw.bytes = 0, 0
	return err
}

// appendFrameHeader appends m's wire header onto dst: the kind byte plus —
// for data frames — uvarint accounted and payload-length fields. It is the
// single encoder the frame writer and the round-trip fuzzer share.
//
//spardl:hotpath
func appendFrameHeader(dst []byte, m message) []byte {
	dst = append(dst, m.kind)
	if m.kind == frameData {
		dst = binary.AppendUvarint(dst, uint64(m.accounted))
		dst = binary.AppendUvarint(dst, uint64(len(m.buf)))
	}
	return dst
}

// readerStickyBytes sizes the frame reader's sticky buffer. It matches the
// kernel's default loopback read granularity so one syscall drains a whole
// burst of batched frames; payload bytes the buffer happens to hold are
// memcpy'd to their arena destination and only the tail past the buffer is
// read directly, so a larger buffer trades (cheap) copies for (expensive)
// syscalls without ever double-buffering more than one read's worth.
const readerStickyBytes = 64 << 10

// frameReader decodes the inbound frame stream: headers parse out of a
// small sticky buffer (one read covers many batched small frames), and
// data-frame payloads land directly in the storage the alloc callback
// provides — the receive path's zero-copy half: alloc hands out
// arena-owned slabs, so the payload's only user-space copy is the
// kernel-to-destination read itself.
type frameReader struct {
	src   io.Reader
	alloc func(n int) []byte
	buf   []byte
	r, w  int // unconsumed window of buf
}

func newFrameReader(src io.Reader, alloc func(n int) []byte) *frameReader {
	return &frameReader{src: src, alloc: alloc, buf: make([]byte, readerStickyBytes)}
}

// next reads one frame. io.EOF at a frame boundary is a clean close; a
// torn frame surfaces as ErrUnexpectedEOF, a corrupt header as a
// descriptive error — never a panic or an over-read past the frame.
//
//spardl:hotpath
func (fr *frameReader) next() (message, error) {
	kind, err := fr.readByte()
	if err != nil {
		return message{}, err // io.EOF here is a graceful close
	}
	if kind != frameData {
		if kind != frameSync {
			return message{}, badFrameKind(kind) //spardl:hotprop-ok error formatting on the protocol-violation path that poisons the conn
		}
		return message{kind: kind}, nil
	}
	acc, err := fr.readUvarint()
	if err != nil {
		return message{}, frameErr(err)
	}
	n, err := fr.readUvarint()
	if err != nil {
		return message{}, frameErr(err)
	}
	if n > maxFrameBytes {
		// A garbage length (torn frame, stray writer) must take the clean
		// "connection failed" poison path, not panic the process inside
		// an absurd allocation.
		return message{}, frameCapError(n) //spardl:hotprop-ok error formatting on the torn-frame path that poisons the conn
	}
	buf := fr.alloc(int(n))
	// Drain whatever of the payload the sticky buffer already holds, then
	// read the remainder straight into its destination.
	c := copy(buf, fr.buf[fr.r:fr.w])
	fr.r += c
	if c < int(n) {
		if _, err := io.ReadFull(fr.src, buf[c:]); err != nil {
			return message{}, frameErr(err)
		}
	}
	return message{kind: kind, buf: buf, accounted: int(acc)}, nil
}

//spardl:hotpath
func (fr *frameReader) readByte() (byte, error) {
	for fr.r == fr.w {
		if err := fr.fill(); err != nil {
			return 0, err
		}
	}
	b := fr.buf[fr.r]
	fr.r++
	return b, nil
}

//spardl:hotpath
func (fr *frameReader) readUvarint() (uint64, error) {
	for {
		x, n := binary.Uvarint(fr.buf[fr.r:fr.w])
		if n > 0 {
			fr.r += n
			return x, nil
		}
		if n < 0 || fr.w-fr.r >= binary.MaxVarintLen64 {
			return 0, errMalformedVarint
		}
		if err := fr.fill(); err != nil {
			return 0, err
		}
	}
}

// fill reads more bytes into the sticky buffer, compacting the consumed
// prefix when the tail runs out of room; it errors only when no byte
// arrived.
func (fr *frameReader) fill() error {
	if fr.r == fr.w {
		fr.r, fr.w = 0, 0
	} else if fr.w == len(fr.buf) {
		fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
		fr.r = 0
	}
	n, err := fr.src.Read(fr.buf[fr.w:])
	fr.w += n
	if n > 0 {
		return nil
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	return err
}

// errMalformedVarint, badFrameKind and frameCapError keep error
// construction off the annotated hot paths; all three feed the reader's
// clean "connection failed" poison route.
var errMalformedVarint = errors.New("malformed frame header varint")

func badFrameKind(kind byte) error {
	return fmt.Errorf("unknown frame kind 0x%02x", kind)
}

func frameCapError(n uint64) error {
	return fmt.Errorf("frame length %d exceeds the %d-byte protocol cap", n, maxFrameBytes)
}

// frameErr maps an EOF in the middle of a frame to ErrUnexpectedEOF so the
// reader reports "connection failed" (a torn frame — crash territory)
// rather than a clean disconnect.
func frameErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Rank returns this worker's rank in [0, P).
func (e *Endpoint) Rank() int { return e.rank }

// P returns the number of workers on the fabric.
func (e *Endpoint) P() int { return e.p }

// Clock returns wall-clock seconds since the mesh came up.
func (e *Endpoint) Clock() float64 { return time.Since(e.start).Seconds() }

// Stats returns a copy of the worker's statistics.
func (e *Endpoint) Stats() comm.Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// ResetStats zeroes the statistics (the clock keeps running).
func (e *Endpoint) ResetStats() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats = comm.Stats{}
}

// Compute books d seconds of modeled local work. The endpoint does not
// sleep: the algorithms' real selection/merge work already runs on this
// goroutine, so the charge is bookkeeping that keeps trainer statistics
// comparable across backends.
func (e *Endpoint) Compute(d float64) {
	if d < 0 {
		panic("tcpnet: negative compute time")
	}
	e.mu.Lock()
	e.stats.CompTime += d
	e.mu.Unlock()
}

func (e *Endpoint) peerFor(op string, r int) *peer {
	if r < 0 || r >= e.p || r == e.rank {
		panic(fmt.Sprintf("tcpnet: worker %d cannot %s worker %d", e.rank, op, r))
	}
	return e.peers[r]
}

// Send serializes payload through the comm payload registry and enqueues
// the frame for worker `to`; the per-peer writer goroutine moves it onto
// the socket, so Send never blocks. The accounted α-β size rides in the
// frame header; stats count the real serialized size.
func (e *Endpoint) Send(to int, payload any, bytes int) {
	pr := e.peerFor("send to", to)
	buf := comm.AppendPayload(getBuf(0), payload)
	e.mu.Lock()
	e.stats.MsgsSent++
	e.stats.BytesSent += int64(len(buf))
	e.mu.Unlock()
	if !pr.sendq.Push(message{kind: frameData, buf: buf, accounted: bytes}) {
		putBuf(buf)
		panic(fmt.Sprintf("tcpnet: send on poisoned fabric: %s", pr.why()))
	}
}

// Recv blocks until a frame from worker `from` arrives, decodes it, and
// returns the payload plus the sender's accounted byte count. The blocking
// wait and the decode are both measured as communication wall time. A lost
// peer surfaces here as a panic with the recorded cause — a poisoned
// fabric, never a hang.
func (e *Endpoint) Recv(from int) (payload any, bytes int) {
	pr := e.peerFor("recv from", from)
	t0 := time.Now()
	m, ok := pr.recvq.Pop()
	if !ok {
		panic(fmt.Sprintf("tcpnet: recv on poisoned fabric: %s", pr.why()))
	}
	if m.kind != frameData {
		panic(fmt.Sprintf("tcpnet: worker %d sent a barrier token where data was expected (schedule mismatch)", from))
	}
	// m.buf is arena-owned storage the reader filled straight off the
	// socket; decoding under the decode arena lets chunk payloads alias it
	// in place instead of copying to pooled heap buffers. The slab stays
	// readable through the quarantine window — until the rotation after
	// next — which outlives every use the reduction schedule can make of
	// the decoded value (same argument as simnet's sender-arena refs). No
	// lock: Recv runs on one goroutine at a time (Overlap contract), and
	// reading another goroutine's finished write to m.buf is ordered by
	// the recvq handoff.
	v, err := comm.UnmarshalPayloadArena(e.decodeArena, m.buf)
	if err != nil {
		panic(fmt.Sprintf("tcpnet: decode from worker %d failed: %v", from, err))
	}
	n := len(m.buf)
	elapsed := time.Since(t0).Seconds()
	e.mu.Lock()
	e.stats.Rounds++
	e.stats.BytesRecv += int64(n)
	e.stats.CommTime += elapsed
	e.mu.Unlock()
	return v, m.accounted
}

// SendRecv performs the paired exchange used by recursive doubling.
func (e *Endpoint) SendRecv(peer int, payload any, bytes int) (got any, gotBytes int) {
	e.Send(peer, payload, bytes)
	return e.Recv(peer)
}

// SyncClock barriers all workers: each sends an empty token to every peer
// and waits for every peer's token, without touching statistics — the
// distributed analogue of simnet's cost-free clock alignment.
func (e *Endpoint) SyncClock() {
	if e.inj != nil {
		if ci := e.inj.CrashIter(); ci >= 0 && e.iters == ci {
			e.crash()
		}
	}
	for r := 0; r < e.p; r++ {
		if r == e.rank {
			continue
		}
		pr := e.peers[r]
		if !pr.sendq.Push(message{kind: frameSync}) {
			panic(fmt.Sprintf("tcpnet: barrier on poisoned fabric: %s", pr.why()))
		}
	}
	for r := 0; r < e.p; r++ {
		if r == e.rank {
			continue
		}
		pr := e.peers[r]
		m, ok := pr.recvq.Pop()
		if !ok {
			panic(fmt.Sprintf("tcpnet: barrier on poisoned fabric: %s", pr.why()))
		}
		if m.kind != frameSync {
			panic(fmt.Sprintf("tcpnet: worker %d sent data where a barrier token was expected (schedule mismatch)", r))
		}
	}
	// Every peer's token is in, and tokens are FIFO behind data frames, so
	// every frame of the finished iteration has been received — and decoded,
	// because an undecoded data frame in recvq would have panicked above as
	// a schedule mismatch. Rotating here starts a fresh epoch in every
	// receive arena; the one-epoch quarantine keeps this iteration's
	// decoded payloads and any next-iteration frames that raced ahead of
	// the barrier readable until the rotation after next, by which point
	// the schedule has consumed them (the same lifetime argument simnet
	// makes for sender-arena refs).
	for r := 0; r < e.p; r++ {
		if pr := e.peers[r]; pr != nil {
			pr.arenaMu.Lock()
			pr.arena.Reset()
			pr.arenaMu.Unlock()
		}
	}
	e.decodeArena.Reset()
	e.iters++
}

// Overlap enqueues body on the worker's communication stream — a real
// goroutine executing overlap bodies in launch order — so the caller's
// subsequent computation genuinely runs concurrently with serialization,
// socket traffic and decoding. Overlap calls may not nest; between Overlap
// and Join the main goroutine must not Send or Recv outside the stream.
//
// The stream itself is comm.StreamLane; the only endpoint-specific part is
// the poison hook wired up in newEndpoint (abortConns — see the lane field
// for why it must never be Abort).
func (e *Endpoint) Overlap(body func(comm.Endpoint)) {
	if !e.lane.Launch(func() { body(streamEndpoint{e}) }) {
		panic("tcpnet: Overlap after shutdown")
	}
}

// streamEndpoint is the view handed to Overlap bodies. It delegates every
// operation to the owning endpoint; only nested stream control is a
// contract violation. Detecting nesting through the type (rather than a
// flag) keeps the main and stream goroutines free of shared mutable
// state: the main lane may legally launch further Overlap bodies while an
// earlier one is still executing.
type streamEndpoint struct{ e *Endpoint }

func (s streamEndpoint) Rank() int         { return s.e.Rank() }
func (s streamEndpoint) P() int            { return s.e.P() }
func (s streamEndpoint) Clock() float64    { return s.e.Clock() }
func (s streamEndpoint) Stats() comm.Stats { return s.e.Stats() }
func (s streamEndpoint) ResetStats()       { s.e.ResetStats() }
func (s streamEndpoint) Compute(d float64) { s.e.Compute(d) }
func (s streamEndpoint) SyncClock()        { s.e.SyncClock() }
func (s streamEndpoint) Join()             { panic("tcpnet: Join inside Overlap") }
func (s streamEndpoint) Send(to int, payload any, bytes int) {
	s.e.Send(to, payload, bytes)
}
func (s streamEndpoint) Recv(from int) (any, int) { return s.e.Recv(from) }
func (s streamEndpoint) SendRecv(peer int, payload any, bytes int) (any, int) {
	return s.e.SendRecv(peer, payload, bytes)
}
func (s streamEndpoint) Overlap(func(comm.Endpoint)) {
	panic("tcpnet: Overlap calls cannot nest")
}

// Join blocks until the communication stream has drained, then books the
// measured wait as exposed communication and the remainder of the stream's
// busy time as OverlapSaved; a stream-body panic resurfaces here.
func (e *Endpoint) Join() {
	exposed, busy, err := e.lane.Join()
	e.mu.Lock()
	if busy > 0 {
		saved := busy - exposed
		if saved < 0 {
			saved = 0
		}
		e.stats.ExposedComm += exposed.Seconds()
		e.stats.OverlapSaved += saved.Seconds()
	}
	e.mu.Unlock()
	if err != nil {
		panic(err)
	}
}

// Close gracefully shuts the endpoint down: it drains and half-closes every
// outbound stream (so peers receive every queued frame, then EOF), waits —
// up to the configured timeout — for peers to close their sides, and then
// tears the connections down. Call it once the worker body is done. After
// an Abort, Close waits for the socket goroutines, which exit as soon as
// their closed connections error, and reaps the stream goroutine.
func (e *Endpoint) Close() {
	if e.closed.CompareAndSwap(false, true) {
		for _, pr := range e.peers {
			if pr != nil {
				pr.sendq.Close()
			}
		}
		// Writers drain and half-close; readers exit when each peer
		// half-closes in turn. Both waits share one deadline: a wedged
		// peer (stopped reading, socket buffer full) must not block Close
		// past the configured timeout — force-closing the connections
		// below errors any stuck write out.
		done := make(chan struct{})
		go func() { e.writers.Wait(); e.readers.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(e.timeout):
		}
		for _, pr := range e.peers {
			if pr != nil {
				pr.conn.Close()
				pr.recvq.Close()
			}
		}
		<-done
	} else {
		// A writer the abort left mid-flush would otherwise still be
		// consulting its chaos injector — shared with the next elastic
		// generation's endpoint for the same worker — after Close returns.
		e.writers.Wait()
		e.readers.Wait()
	}
	e.shutdownStream()
}

// Abort tears the endpoint down immediately, recording cause on every
// peer, and reaps the communication stream. The worker-crash path; must
// run on the worker goroutine (a stream body's recover handler uses
// abortConns directly — see Overlap).
func (e *Endpoint) Abort(cause string) {
	e.abortConns(cause)
	e.shutdownStream()
}

// abortConns poisons every peer — sockets close (so remote blocked Recvs
// unwind), local queues close (so local blocked Recvs unwind) — without
// touching the stream goroutine, so it is safe to call from the stream
// itself. Idempotent; the first recorded cause per peer wins. Holding
// regMu makes the abort atomic against in-flight mesh registration: a
// connection registers before this loop (and is closed here) or after
// the closed mark (and is closed by register).
func (e *Endpoint) abortConns(cause string) {
	if e.recordCause != nil {
		e.recordCause(cause)
	}
	e.regMu.Lock()
	defer e.regMu.Unlock()
	e.closed.Store(true)
	for _, pr := range e.peers {
		if pr == nil {
			continue
		}
		pr.fail(cause)
		pr.sendq.Close()
		if pr.conn != nil {
			pr.conn.Close()
		}
	}
}

// shutdownStream stops the communication stream goroutine, if one started.
func (e *Endpoint) shutdownStream() {
	e.lane.Shutdown()
}
