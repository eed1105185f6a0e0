// Package server exposes the multi-tenant cache store over TCP using the
// memcached-style text protocol from internal/protocol. One goroutine serves
// each connection and responses are written pipelined: the handler parses
// ahead while client data is buffered and flushes once per batch, so a
// pipelining client pays one syscall per batch instead of one per command.
// The store shards each tenant's values under striped locks, so connections
// hitting the same hot application still proceed in parallel, mirroring how
// one Cliffhanger instance serves many applications on a Memcachier server.
//
// An idle connection holds only its goroutine and a 512 B idle buffer: the
// session waits for the next command by reading into that buffer, then leases
// its mid-batch state from a pool — two 64 KiB bufio buffers, a zero-copy
// protocol.Parser (one reusable Command, keys as []byte) and a response
// scratch buffer that VALUE headers and numeric replies are assembled into
// with strconv.Append* — and returns it at the batch-boundary flush. So
// front-end memory grows with the batches in flight, not with the
// connections held open.
//
// The request path is allocation-free in the steady state: leases are
// recycled, and GET responses are streamed one VALUE block at a time as keys
// are looked up (no []Value buffering). Keys cross into the store as []byte
// via the byte-key entry points (GetItemView, SetItemBytes,
// AppendBytes/PrependBytes). Value bytes live in the store's recycled
// slab-arena chunks and are streamed zero-copy: a GET pins the arena epoch
// (store.GetItemView) and writes the borrowed chunk view straight into the
// connection writer before releasing the pin — epoch-based quarantine
// guarantees the chunk cannot be recycled while the view is live — and a SET
// copies the parse buffer into a recycled chunk, so the only steady-state
// allocation anywhere on the path is the interned key string of a first-time
// SET. The TestAllocGate tests pin this with
// testing.AllocsPerRun.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cliffhanger/internal/metrics"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/store"
)

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:11211". Use ":0" to
	// pick an ephemeral port (the chosen address is available via Addr()).
	Addr string
	// DefaultTenant is the tenant used before a connection issues the
	// tenant verb. It must be registered on the store.
	DefaultTenant string
	// Logger receives error messages; nil discards them.
	Logger *log.Logger

	// MaxConns caps simultaneously served connections (memcached's -c). An
	// accept past the cap is answered "SERVER_ERROR too many connections"
	// and closed, counted in rejected_connections; the listener keeps
	// accepting, so the governor sheds load instead of letting the backlog
	// time clients out invisibly. 0 means unlimited.
	MaxConns int
	// IdleTimeout bounds how long a connection may sit between commands
	// waiting for the first byte of the next one. An expired wait closes
	// the connection and counts in conn_timeouts, freeing the session's
	// goroutine and idle buffer. 0 disables the idle check.
	IdleTimeout time.Duration
	// ReadTimeout bounds delivery of a single command once its first byte
	// has arrived: the rest of the line and any storage data block must
	// land within it. This is the slow-loris guard — a client dribbling a
	// storage payload one byte at a time tears only its own connection.
	// 0 disables the per-command bound (IdleTimeout, if set, still applies
	// to the read that starts the command).
	ReadTimeout time.Duration
	// WriteTimeout bounds each write toward the client, so a stuck reader
	// (zero-window peer) cannot pin a session goroutine and its buffered
	// responses forever. 0 disables it.
	WriteTimeout time.Duration
}

// Server serves the memcached-style protocol over TCP.
type Server struct {
	cfg   Config
	store *store.Store

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup

	// closing marks an intentional listener teardown (Close/Shutdown), so
	// the accept loop classifies its error as a clean exit. draining is the
	// graceful-shutdown signal: sessions finish the in-flight pipelined
	// batch, flush, and exit at the next batch boundary.
	closing  atomic.Bool
	draining atomic.Bool

	// Connection-governor counters (memcached-parity stats).
	curr     atomic.Int64
	total    atomic.Int64
	rejected atomic.Int64
	timeouts atomic.Int64
	panics   atomic.Int64

	// bufs pools the batch buffer pairs sessions lease per batch. leased
	// counts the pairs currently leased and pairs the pairs that exist
	// (leased, pooled, or dropped by the pool but not yet collected).
	bufs   sync.Pool
	leased atomic.Int64
	pairs  atomic.Int64

	// testHookCommand, when set by a test, runs after dispatch accounting
	// for every command. It exists so the per-connection panic recovery can
	// be exercised without planting a bug in a real handler.
	testHookCommand func(*protocol.Command)

	// Latency and throughput instrumentation (Tables 6 and 7).
	GetLatency *metrics.LatencyHistogram
	SetLatency *metrics.LatencyHistogram
	Ops        *metrics.Throughput
}

// ConnStats is a snapshot of the connection governor's counters, served by
// the stats verb with memcached's field names.
type ConnStats struct {
	// CurrConnections is the number of connections being served right now.
	CurrConnections int64
	// TotalConnections counts every connection ever admitted.
	TotalConnections int64
	// RejectedConnections counts accepts refused at the MaxConns cap.
	RejectedConnections int64
	// ConnTimeouts counts connections closed by the idle or per-command
	// read deadline.
	ConnTimeouts int64
	// ConnPanics counts sessions torn down by the per-connection panic
	// recovery (each one would previously have killed the daemon).
	ConnPanics int64
	// ActiveSessions is the number of connections holding a leased batch
	// buffer pair, i.e. mid-batch. Idle connections hold none.
	ActiveSessions int64
	// BufferPoolBytes is the buffer footprint of the batch buffer pairs that
	// exist, leased or pooled (pairs × two 64 KiB bufio buffers).
	BufferPoolBytes int64
}

// ConnStats returns the governor's counter snapshot.
func (s *Server) ConnStats() ConnStats {
	return ConnStats{
		CurrConnections:     s.curr.Load(),
		TotalConnections:    s.total.Load(),
		RejectedConnections: s.rejected.Load(),
		ConnTimeouts:        s.timeouts.Load(),
		ConnPanics:          s.panics.Load(),
		ActiveSessions:      s.leased.Load(),
		BufferPoolBytes:     s.pairs.Load() * 2 * sessionBufSize,
	}
}

// New creates a server for the given store.
func New(cfg Config, st *store.Store) *Server {
	if cfg.DefaultTenant == "" {
		cfg.DefaultTenant = "default"
	}
	s := &Server{
		cfg:        cfg,
		store:      st,
		conns:      make(map[net.Conn]struct{}),
		GetLatency: &metrics.LatencyHistogram{},
		SetLatency: &metrics.LatencyHistogram{},
		Ops:        metrics.NewThroughput(),
	}
	s.bufs.New = s.newPooledBufs
	return s
}

// Start begins listening and serving in background goroutines.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the listener address (useful with ":0").
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close stops the listener and abruptly closes every connection. In-flight
// commands are torn; use Shutdown for a graceful drain. Close is idempotent
// and safe after Shutdown.
func (s *Server) Close() error {
	s.closing.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting, signals every
// session to finish answering its in-flight pipelined batch, wakes
// connections blocked waiting for their next command, and waits for the
// sessions to exit. If ctx expires first, the stragglers are torn down. The
// store is then flushed and closed so bookkeeping settles — queues, stats
// and arena accounting reflect every answered request. Shutdown returns
// ctx's error when the drain deadline forced connections closed, nil on a
// clean drain. It is idempotent and safe to race with Close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.draining.Store(true)
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	if !alreadyClosed && s.listener != nil {
		s.listener.Close()
	}
	// Wake sessions blocked in a read: the expired deadline surfaces as a
	// timeout, which step() treats as the drain signal (responses already
	// queued are flushed on the way out). Sessions mid-batch notice the
	// drain flag at their next batch boundary instead and are not torn.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var forced error
	select {
	case <-done:
	case <-ctx.Done():
		forced = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	s.store.Flush()
	if err := s.store.Close(); err != nil {
		return err
	}
	return forced
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// A closed listener is how Close/Shutdown stop this loop:
			// classify it as a clean exit, not an error to surface.
			if errors.Is(err, net.ErrClosed) || s.closing.Load() {
				return
			}
			// Transient accept pressure (EMFILE during an accept storm):
			// back off briefly instead of spinning or abandoning the
			// listener.
			s.logf("server: accept: %v", err)
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.rejected.Add(1)
			s.wg.Add(1)
			go s.rejectConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.total.Add(1)
		s.curr.Add(1)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// rejectConn tells a client the governor is shedding it and hangs up. The
// write gets its own short deadline so a peer that never reads cannot pin
// the goroutine.
func (s *Server) rejectConn(conn net.Conn) {
	defer s.wg.Done()
	conn.SetWriteDeadline(time.Now().Add(time.Second))
	io.WriteString(conn, "SERVER_ERROR too many connections\r\n")
	conn.Close()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// governedConn enforces the governor's deadlines at the transport layer, so
// neither the parser nor the handlers need to know about time. Reads at a
// command boundary get the idle deadline; once a command's first byte has
// arrived, the rest of the command (line and data block) must land by an
// absolute per-command deadline — re-arming per read would let a slow-loris
// client stay alive forever at one byte per interval. Writes get a fresh
// write deadline each call. The session goroutine is the only reader and
// writer, so the fields need no locking; arming a deadline does not
// allocate, which keeps the governed path inside the hot-path alloc gates.
type governedConn struct {
	net.Conn
	srv         *Server
	idle        time.Duration
	read        time.Duration
	write       time.Duration
	inCommand   bool
	cmdDeadline time.Time
	armed       bool
	// pending is what awaitCommand read into idleBuf and the leased reader
	// has not yet taken; Read replays it before touching the socket.
	pending []byte
	idleBuf [idleBufSize]byte
}

// awaitCommand blocks at a command boundary, under the idle deadline, until
// the next command's first bytes arrive, and keeps them in the idle buffer
// for Read to replay.
func (g *governedConn) awaitCommand() error {
	n, err := g.Read(g.idleBuf[:])
	g.pending = g.idleBuf[:n]
	if n > 0 {
		// Serve the bytes even if err is set; the next read reports it.
		return nil
	}
	return err
}

func (g *governedConn) Read(p []byte) (int, error) {
	if len(g.pending) > 0 {
		n := copy(p, g.pending)
		g.pending = g.pending[n:]
		return n, nil
	}
	if !g.inCommand {
		changed := g.idle > 0 || g.armed
		if g.idle > 0 {
			g.Conn.SetReadDeadline(time.Now().Add(g.idle))
			g.armed = true
		} else if g.armed {
			g.Conn.SetReadDeadline(time.Time{})
			g.armed = false
		}
		// Shutdown wakes blocked readers by expiring their deadline; if
		// the drain began between the session's batch-boundary check and
		// the change above, the change just erased the wake-up — re-expire.
		if changed && g.srv != nil && g.srv.draining.Load() {
			g.Conn.SetReadDeadline(time.Now())
			g.armed = true
		}
		n, err := g.Conn.Read(p)
		if n > 0 {
			g.inCommand = true
			if g.read > 0 {
				g.cmdDeadline = time.Now().Add(g.read)
			}
		}
		return n, err
	}
	if g.read > 0 {
		g.Conn.SetReadDeadline(g.cmdDeadline)
		g.armed = true
	} else if g.armed {
		g.Conn.SetReadDeadline(time.Time{})
		g.armed = false
	}
	return g.Conn.Read(p)
}

func (g *governedConn) Write(p []byte) (int, error) {
	if g.write > 0 {
		g.Conn.SetWriteDeadline(time.Now().Add(g.write))
	}
	return g.Conn.Write(p)
}

// session is the per-connection state: the selected tenant and the governed
// transport, plus the mid-batch state (batchBufs: buffered reader/writer,
// zero-copy parser with its reusable Command, response scratch) that it
// leases when a command arrives and returns at the batch-boundary flush.
// Value bytes are never copied into the session: GET streams them from an
// epoch-pinned arena view. Everything a command needs in the steady state is
// reused across commands, so the request path does not allocate.
type session struct {
	srv    *Server
	tenant string
	// gc is the governed transport under the leased reader and writer; nil
	// for in-memory sessions (tests), which own their buffers outright.
	gc *governedConn
	// *batchBufs is the leased pair; nil between batches.
	*batchBufs
}

// newSession builds an in-memory session over the given buffered reader and
// writer, which it keeps for its whole life.
func newSession(s *Server, r *bufio.Reader, w *bufio.Writer) *session {
	return &session{
		srv:       s,
		tenant:    s.cfg.DefaultTenant,
		batchBufs: newBatchBufs(r, w),
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	c := &session{
		srv:    s,
		tenant: s.cfg.DefaultTenant,
		gc: &governedConn{
			Conn:  conn,
			srv:   s,
			idle:  s.cfg.IdleTimeout,
			read:  s.cfg.ReadTimeout,
			write: s.cfg.WriteTimeout,
		},
	}
	// One poisoned session must never take the daemon down: recover, count,
	// log, and let the cleanup defer below close the connection. Other
	// sessions and the store are untouched — the panicking goroutine held
	// no lock here (store-internal locks are released before values cross
	// the API boundary).
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.logf("server: panic serving %v: %v\n%s", conn.RemoteAddr(), r, debug.Stack())
		}
	}()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.curr.Add(-1)
		conn.Close()
		// The pair is safe to pool even after a panic: lease resets both
		// buffers and the parser resets per command.
		c.release()
	}()
	for c.step() {
	}
}

// step reads and executes one command, reporting whether the connection
// should keep being served. Responses are written pipelined (memcached
// style): while more client data is already buffered, parsing continues and
// responses queue up; the writer is flushed only once the batch is exhausted,
// i.e. right before the next read could block. A closed-loop client (one
// request at a time) still gets a flush per request. The flush is also where
// a connection returns its leased buffers, and the next step waits for the
// following batch in the idle buffer.
func (c *session) step() bool {
	if c.gc != nil {
		// Command boundary: the next conn read waits under the idle
		// deadline until a command's first byte arrives.
		c.gc.inCommand = false
		if c.batchBufs == nil {
			if err := c.gc.awaitCommand(); err != nil {
				// The peer left or a governor deadline fired between
				// batches — an idle connection or the shutdown wake-up.
				// Every answered batch was flushed, so nothing is lost.
				if netErr, ok := asNetError(err); ok && netErr.Timeout() && !c.srv.draining.Load() {
					c.srv.timeouts.Add(1)
				}
				return false
			}
			c.lease()
		}
	}
	cmd, err := c.parser.ReadCommand()
	if err != nil {
		if errors.Is(err, protocol.ErrQuit) || errors.Is(err, io.EOF) {
			return false
		}
		netErr, isNet := asNetError(err)
		if isNet && netErr.Timeout() {
			// A governor deadline fired mid-command — a slow-loris command
			// or the shutdown wake-up. Nothing useful can be said to the
			// peer (it may be gone, and the parser is mid-command), but
			// responses already queued for answered commands are flushed on
			// the way out so a drain never drops them.
			if c.srv.draining.Load() {
				c.w.Flush()
			} else {
				c.srv.timeouts.Add(1)
			}
			return false
		}
		if writeErr := protocol.WriteLine(c.w, "CLIENT_ERROR "+err.Error()); writeErr != nil {
			return false
		}
		if err := c.w.Flush(); err != nil {
			return false
		}
		// A line past MaxLineLength may have been — and an unparseable
		// <bytes> field definitely was — a storage command whose announced
		// data block is still in the stream; parsing on would execute
		// payload bytes as commands, so the connection must close.
		if errors.Is(err, protocol.ErrLineTooLong) || errors.Is(err, protocol.ErrBadDataSize) {
			return false
		}
		// Unknown commands are recoverable; IO errors are not.
		return !isNet
	}
	if err := c.srv.handle(c, cmd); err != nil {
		c.srv.logf("server: %v", err)
		return false
	}
	if c.r.Buffered() == 0 {
		if err := c.w.Flush(); err != nil {
			return false
		}
		// Batch answered and flushed: if a graceful shutdown is in
		// progress, this is the drain point — exit before blocking on a
		// next command that may never come.
		if c.srv.draining.Load() {
			return false
		}
		c.release()
	}
	return true
}

// asNetError is errors.As(err, &netErr) with a fast path: transport errors
// arrive from the net package unwrapped, so a direct type assertion almost
// always suffices. The errors.As fallback (whose target escapes, costing an
// allocation) only runs for wrapped errors, which keeps idle and
// per-command deadline expiries allocation-free.
func asNetError(err error) (net.Error, bool) {
	if ne, ok := err.(net.Error); ok {
		return ne, true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return ne, true
	}
	return nil, false
}

// handle executes one command and writes its response.
func (s *Server) handle(c *session, cmd *protocol.Command) error {
	s.Ops.Add(1)
	if s.testHookCommand != nil {
		s.testHookCommand(cmd)
	}
	switch cmd.Name {
	case protocol.VerbTenant:
		c.tenant = cmd.Tenant
		return protocol.WriteLine(c.w, "TENANT")
	case protocol.VerbGet, protocol.VerbGets:
		return s.handleGet(c, cmd)
	case protocol.VerbSet, protocol.VerbAdd, protocol.VerbReplace,
		protocol.VerbAppend, protocol.VerbPrepend, protocol.VerbCas:
		return s.handleSet(c, cmd)
	case protocol.VerbTouch:
		return s.handleTouch(c, cmd)
	case protocol.VerbIncr, protocol.VerbDecr:
		return s.handleIncrDecr(c, cmd)
	case protocol.VerbDelete:
		return s.handleDelete(c, cmd)
	case protocol.VerbStats:
		return s.handleStats(c, cmd)
	case protocol.VerbFlushAll:
		// cmd.ExpTime carries the optional delay: 0 flushes immediately, a
		// future deadline invalidates items last written before it once it
		// passes (memcached flush_all semantics).
		err := s.store.FlushAll(c.tenant, cmd.ExpTime)
		if cmd.NoReply {
			return nil
		}
		if err != nil {
			return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
		}
		return protocol.WriteLine(c.w, "OK")
	case protocol.VerbTenantCreate, protocol.VerbTenantResize, protocol.VerbTenantDelete:
		return s.handleTenantAdmin(c, cmd)
	case protocol.VerbVersion:
		return protocol.WriteLine(c.w, "VERSION cliffhanger-1.0")
	default:
		return protocol.WriteLine(c.w, "ERROR")
	}
}

// maxTenantMB bounds the admin-verb size argument so the MB→bytes shift can
// never overflow int64 (2^30 MB is 1 PiB — far past any real reservation).
const maxTenantMB = 1 << 30

// handleTenantAdmin executes the runtime tenant lifecycle verbs. create and
// resize carry the reservation in cmd.Delta (megabytes); delete takes just a
// name. Each replies OK on success; lifecycle errors (duplicate create,
// unknown tenant) come back as SERVER_ERROR without dropping the connection.
func (s *Server) handleTenantAdmin(c *session, cmd *protocol.Command) error {
	var err error
	switch cmd.Name {
	case protocol.VerbTenantCreate, protocol.VerbTenantResize:
		if cmd.Delta > maxTenantMB {
			return protocol.WriteLine(c.w, "CLIENT_ERROR tenant size out of range")
		}
		bytes := int64(cmd.Delta) << 20
		if cmd.Name == protocol.VerbTenantCreate {
			err = s.store.RegisterTenant(cmd.Tenant, bytes)
		} else {
			err = s.store.ResizeTenant(cmd.Tenant, bytes)
		}
	case protocol.VerbTenantDelete:
		err = s.store.DeleteTenant(cmd.Tenant)
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	return protocol.WriteLine(c.w, "OK")
}

// handleGet streams one VALUE block per present key as it is looked up —
// no []Value is buffered — and terminates with END. The value bytes are
// written zero-copy from an epoch-pinned arena view (store.GetItemView):
// the pin holds the chunk out of recycling while it is on loan to the
// writer and is released as soon as the block is queued. The VALUE header
// is assembled into the session scratch with strconv appends.
func (s *Server) handleGet(c *session, cmd *protocol.Command) error {
	withCAS := cmd.Name == protocol.VerbGets
	for _, key := range cmd.Keys {
		start := nowNano()
		view, ok, err := s.store.GetItemView(c.tenant, key)
		s.GetLatency.Record(nowNano() - start)
		if err != nil {
			return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
		}
		if !ok {
			continue
		}
		c.scratch = protocol.AppendValueHeader(c.scratch[:0], key, view.Flags, len(view.Value), view.CAS, withCAS)
		_, werr := c.w.Write(c.scratch)
		if werr == nil {
			_, werr = c.w.Write(view.Value)
		}
		if werr == nil {
			_, werr = c.w.WriteString("\r\n")
		}
		view.Release()
		if werr != nil {
			return werr
		}
	}
	_, err := c.w.WriteString("END\r\n")
	return err
}

func (s *Server) handleSet(c *session, cmd *protocol.Command) error {
	key := cmd.Keys[0]
	start := nowNano()
	var (
		stored bool
		err    error
	)
	// Every storage verb copies the parser-owned data block into an arena
	// chunk under the shard lock, so the reusable parse buffer can be passed
	// through without cloning.
	switch cmd.Name {
	case protocol.VerbSet:
		err = s.store.SetItemBytes(c.tenant, key, cmd.Data, cmd.Flags, cmd.ExpTime)
		stored = err == nil
	case protocol.VerbAdd:
		stored, err = s.store.Add(c.tenant, string(key), cmd.Data, cmd.Flags, cmd.ExpTime)
	case protocol.VerbReplace:
		stored, err = s.store.Replace(c.tenant, string(key), cmd.Data, cmd.Flags, cmd.ExpTime)
	case protocol.VerbAppend:
		stored, err = s.store.AppendBytes(c.tenant, key, cmd.Data)
	case protocol.VerbPrepend:
		stored, err = s.store.PrependBytes(c.tenant, key, cmd.Data)
	case protocol.VerbCas:
		res, cerr := s.store.CompareAndSwap(c.tenant, string(key), cmd.Data, cmd.Flags, cmd.ExpTime, cmd.CAS)
		s.SetLatency.Record(nowNano() - start)
		if cmd.NoReply {
			return nil
		}
		if cerr != nil {
			return protocol.WriteLine(c.w, "SERVER_ERROR "+cerr.Error())
		}
		switch res {
		case store.CASStored:
			return protocol.WriteLine(c.w, "STORED")
		case store.CASExists:
			return protocol.WriteLine(c.w, "EXISTS")
		default:
			return protocol.WriteLine(c.w, "NOT_FOUND")
		}
	}
	s.SetLatency.Record(nowNano() - start)
	if cmd.NoReply {
		return nil
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	if !stored {
		return protocol.WriteLine(c.w, "NOT_STORED")
	}
	return protocol.WriteLine(c.w, "STORED")
}

func (s *Server) handleTouch(c *session, cmd *protocol.Command) error {
	start := nowNano()
	found, err := s.store.Touch(c.tenant, string(cmd.Keys[0]), cmd.ExpTime)
	s.SetLatency.Record(nowNano() - start)
	if cmd.NoReply {
		return nil
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	if !found {
		return protocol.WriteLine(c.w, "NOT_FOUND")
	}
	return protocol.WriteLine(c.w, "TOUCHED")
}

func (s *Server) handleIncrDecr(c *session, cmd *protocol.Command) error {
	var (
		val   uint64
		found bool
		err   error
	)
	start := nowNano()
	if cmd.Name == protocol.VerbIncr {
		val, found, err = s.store.Incr(c.tenant, string(cmd.Keys[0]), cmd.Delta)
	} else {
		val, found, err = s.store.Decr(c.tenant, string(cmd.Keys[0]), cmd.Delta)
	}
	s.SetLatency.Record(nowNano() - start)
	if cmd.NoReply {
		return nil
	}
	if errors.Is(err, store.ErrNotNumeric) {
		return protocol.WriteLine(c.w, "CLIENT_ERROR cannot increment or decrement non-numeric value")
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	if !found {
		return protocol.WriteLine(c.w, "NOT_FOUND")
	}
	c.scratch = strconv.AppendUint(c.scratch[:0], val, 10)
	c.scratch = append(c.scratch, '\r', '\n')
	_, werr := c.w.Write(c.scratch)
	return werr
}

func (s *Server) handleDelete(c *session, cmd *protocol.Command) error {
	deleted, err := s.store.Delete(c.tenant, string(cmd.Keys[0]))
	if cmd.NoReply {
		return nil
	}
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	if deleted {
		return protocol.WriteLine(c.w, "DELETED")
	}
	return protocol.WriteLine(c.w, "NOT_FOUND")
}

func (s *Server) handleStats(c *session, cmd *protocol.Command) error {
	if len(cmd.Keys) > 0 {
		switch string(cmd.Keys[0]) {
		case "slabs":
			return s.handleStatsSlabs(c)
		case "arbiter":
			return s.handleStatsArbiter(c)
		}
		return protocol.WriteLine(c.w, "ERROR")
	}
	st, err := s.store.Stats(c.tenant)
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	// Arena occupancy for the tenant: total carved bytes and the fraction
	// backing resident values (chunks in use over chunks carved).
	var arenaBytes, usedChunkBytes, totalChunkBytes int64
	if classes, err := s.store.SlabStats(c.tenant); err == nil {
		arenaBytes, usedChunkBytes, totalChunkBytes = store.SumArenaStats(classes)
	}
	occupancy := 0.0
	if totalChunkBytes > 0 {
		occupancy = float64(usedChunkBytes) / float64(totalChunkBytes)
	}
	// Epoch-based reclamation counters: the current global epoch, chunks
	// sitting in quarantine awaiting recycle, and the lifetime count of
	// frees that were deferred through quarantine.
	rs, _ := s.store.ReclaimStats(c.tenant)
	// Process-wide page pool: total raw pages, unleased pages, and this
	// tenant's lease count (pages migrate between tenants at runtime).
	ps := s.store.PageStats()
	// Connection-governor counters (process-wide, memcached field names).
	cs := s.ConnStats()
	// Arbitration-facing state for this tenant: the reserved floor the
	// arbiter honours, the reservation it is converging to, and the marginal
	// hit-rate-per-byte signal it ranks the tenant by.
	as := s.store.ArbiterStats()
	at := as.Tenants[c.tenant]
	order := []string{"tenant", "cmd_get", "get_hits", "get_misses", "hit_rate", "cmd_set", "cmd_touch", "touch_hits", "expired", "ops_per_sec", "curr_connections", "total_connections", "rejected_connections", "conn_timeouts", "conn_panics", "active_sessions", "buffer_pool_bytes", "mem_inuse_bytes", "arena_bytes", "arena_occupancy", "epoch_current", "epoch_quarantined_chunks", "epoch_deferred_frees", "page_pool_total", "page_pool_free", "lease_pages", "reserved_pages", "target_bytes", "marginal_hit_per_byte", "arbiter_moves"}
	stats := map[string]string{
		"tenant":                   c.tenant,
		"curr_connections":         strconv.FormatInt(cs.CurrConnections, 10),
		"total_connections":        strconv.FormatInt(cs.TotalConnections, 10),
		"rejected_connections":     strconv.FormatInt(cs.RejectedConnections, 10),
		"conn_timeouts":            strconv.FormatInt(cs.ConnTimeouts, 10),
		"conn_panics":              strconv.FormatInt(cs.ConnPanics, 10),
		"active_sessions":          strconv.FormatInt(cs.ActiveSessions, 10),
		"buffer_pool_bytes":        strconv.FormatInt(cs.BufferPoolBytes, 10),
		"mem_inuse_bytes":          strconv.FormatUint(memInuseBytes(), 10),
		"cmd_get":                  strconv.FormatInt(st.Requests, 10),
		"get_hits":                 strconv.FormatInt(st.Hits, 10),
		"get_misses":               strconv.FormatInt(st.Misses, 10),
		"hit_rate":                 fmt.Sprintf("%.4f", st.HitRate()),
		"cmd_set":                  strconv.FormatInt(st.Sets, 10),
		"cmd_touch":                strconv.FormatInt(st.Touches, 10),
		"touch_hits":               strconv.FormatInt(st.TouchHits, 10),
		"expired":                  strconv.FormatInt(st.Expired, 10),
		"ops_per_sec":              fmt.Sprintf("%.0f", s.Ops.Rate()),
		"arena_bytes":              strconv.FormatInt(arenaBytes, 10),
		"arena_occupancy":          fmt.Sprintf("%.4f", occupancy),
		"epoch_current":            strconv.FormatUint(rs.Epoch, 10),
		"epoch_quarantined_chunks": strconv.FormatInt(rs.QuarantinedChunks, 10),
		"epoch_deferred_frees":     strconv.FormatInt(rs.DeferredFrees, 10),
		"page_pool_total":          strconv.FormatInt(ps.TotalPages, 10),
		"page_pool_free":           strconv.FormatInt(ps.FreePages, 10),
		"lease_pages":              strconv.FormatInt(ps.Leases[c.tenant], 10),
		"reserved_pages":           strconv.FormatInt(at.ReservedPages, 10),
		"target_bytes":             strconv.FormatInt(at.TargetBytes, 10),
		"marginal_hit_per_byte":    strconv.FormatFloat(at.MarginalHitPerByte, 'g', -1, 64),
		"arbiter_moves":            strconv.FormatInt(as.Moves, 10),
	}
	for _, cl := range st.Classes {
		k := fmt.Sprintf("class_%d_hit_rate", cl.Class)
		order = append(order, k)
		hr := 0.0
		if cl.Requests > 0 {
			hr = float64(cl.Hits) / float64(cl.Requests)
		}
		stats[k] = fmt.Sprintf("%.4f", hr)
	}
	return protocol.WriteStats(c.w, stats, order)
}

// memInuseNames are the runtime/metrics classes that sum to
// runtime.MemStats' HeapInuse+StackInuse: heap spans holding objects (the
// objects plus the unused tails of their spans, together HeapInuse) and
// stack spans (StackInuse).
var memInuseNames = [...]string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
	"/memory/classes/heap/stacks:bytes",
}

// memInuseBytes is the process's heap plus stack in use, the numerator of
// the bytes-per-connection figure a harness derives from one stats call
// (mem_inuse_bytes / curr_connections). Unlike runtime.ReadMemStats it does
// not stop the world, so polling stats never pauses the request path.
func memInuseBytes() uint64 {
	var samples [len(memInuseNames)]rtmetrics.Sample
	for i, name := range memInuseNames {
		samples[i].Name = name
	}
	rtmetrics.Read(samples[:])
	var sum uint64
	for _, sample := range samples {
		if sample.Value.Kind() == rtmetrics.KindUint64 {
			sum += sample.Value.Uint64()
		}
	}
	return sum
}

// handleStatsArbiter serves the "stats arbiter" sub-command: the
// process-wide move count and last move, then every tenant's
// arbitration-facing state ("<tenant>:<field>") — lease/reserved pages, the
// reservation target, the two hit-rate-per-byte estimates, and whether the
// tenant participates in arbitration at all. Tenants are emitted in sorted
// order so the output is stable, which is what lets an operator watch memory
// migrate between tenants with a watch loop.
func (s *Server) handleStatsArbiter(c *session) error {
	as := s.store.ArbiterStats()
	var order []string
	stats := make(map[string]string)
	add := func(k, v string) {
		order = append(order, k)
		stats[k] = v
	}
	add("arbiter_moves", strconv.FormatInt(as.Moves, 10))
	add("arbiter_last_move", as.LastMove)
	names := make([]string, 0, len(as.Tenants))
	for n := range as.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := as.Tenants[n]
		add(n+":arbitrated", strconv.FormatBool(t.Arbitrated))
		add(n+":lease_pages", strconv.FormatInt(t.LeasePages, 10))
		add(n+":reserved_pages", strconv.FormatInt(t.ReservedPages, 10))
		add(n+":target_bytes", strconv.FormatInt(t.TargetBytes, 10))
		add(n+":marginal_hit_per_byte", strconv.FormatFloat(t.MarginalHitPerByte, 'g', -1, 64))
		add(n+":hit_density_per_byte", strconv.FormatFloat(t.HitDensityPerByte, 'g', -1, 64))
	}
	return protocol.WriteStats(c.w, stats, order)
}

// handleStatsSlabs serves the memcached "stats slabs" sub-command from the
// tenant's arena accounting: per active class the chunk size, carved pages
// and used/free/quarantined chunk counts, then the cross-class page count
// and total arena bytes (memcached's active_slabs / total_malloced footer).
func (s *Server) handleStatsSlabs(c *session) error {
	classes, err := s.store.SlabStats(c.tenant)
	if err != nil {
		return protocol.WriteLine(c.w, "SERVER_ERROR "+err.Error())
	}
	var order []string
	stats := make(map[string]string)
	add := func(k, v string) {
		order = append(order, k)
		stats[k] = v
	}
	active := 0
	var totalBytes, totalPages int64
	for _, cl := range classes {
		if cl.Pages == 0 {
			continue
		}
		active++
		totalPages += cl.Pages
		totalBytes += cl.ArenaBytes()
		prefix := strconv.Itoa(cl.Class)
		add(prefix+":chunk_size", strconv.FormatInt(cl.ChunkSize, 10))
		add(prefix+":total_pages", strconv.FormatInt(cl.Pages, 10))
		add(prefix+":total_chunks", strconv.FormatInt(cl.TotalChunks, 10))
		add(prefix+":used_chunks", strconv.FormatInt(cl.UsedChunks, 10))
		add(prefix+":free_chunks", strconv.FormatInt(cl.FreeChunks, 10))
		add(prefix+":quarantined_chunks", strconv.FormatInt(cl.QuarantinedChunks, 10))
		add(prefix+":mem_requested", strconv.FormatInt(cl.UsedChunks*cl.ChunkSize, 10))
	}
	add("active_slabs", strconv.Itoa(active))
	add("total_pages", strconv.FormatInt(totalPages, 10))
	add("total_malloced", strconv.FormatInt(totalBytes, 10))
	return protocol.WriteStats(c.w, stats, order)
}
