package server

import (
	"bufio"
	"runtime"

	"cliffhanger/internal/protocol"
)

// sessionBufSize is the per-direction bufio size of a leased batch buffer
// pair.
const sessionBufSize = 64 << 10

// idleBufSize is the read buffer a connection owns outright: between batches
// its session waits for the next command by reading into it, so an idle
// connection pins this much instead of a leased pair. Most commands arrive
// whole in it; a longer one pays one extra read for its tail.
const idleBufSize = 512

// batchBufs is the mid-batch state a session leases when a command arrives
// and returns at the batch-boundary flush: the two 64 KiB bufio buffers, the
// zero-copy parser reading from the reader, and the response scratch. None of
// it points back at the connection once returned, so a pooled pair pins no
// connection.
type batchBufs struct {
	r       *bufio.Reader
	w       *bufio.Writer
	parser  *protocol.Parser
	scratch []byte
}

func newBatchBufs(r *bufio.Reader, w *bufio.Writer) *batchBufs {
	return &batchBufs{r: r, w: w, parser: protocol.NewParser(r)}
}

// newPooledBufs builds a pair for the lease pool. The finalizer keeps
// buffer_pool_bytes honest: the pool frees a pair left unused across two
// garbage collections, and the count drops when the collector does.
func (s *Server) newPooledBufs() any {
	b := newBatchBufs(bufio.NewReaderSize(nil, sessionBufSize), bufio.NewWriterSize(nil, sessionBufSize))
	s.pairs.Add(1)
	runtime.SetFinalizer(b, func(*batchBufs) { s.pairs.Add(-1) })
	return b
}

// lease binds a pooled pair to the session's connection. The reader's first
// bytes are the ones the idle read already took in (governedConn replays
// them), so nothing read while idle is lost.
func (c *session) lease() {
	b := c.srv.bufs.Get().(*batchBufs)
	b.r.Reset(c.gc)
	b.w.Reset(c.gc)
	c.batchBufs = b
	c.srv.leased.Add(1)
}

// release returns the session's pair to the pool. Callers release only at a
// batch boundary, with every response flushed and nothing buffered, or when
// the connection is closing; either way the pair's contents are dead.
// In-memory sessions (tests) own their buffers and keep them.
func (c *session) release() {
	b := c.batchBufs
	if c.gc == nil || b == nil {
		return
	}
	c.batchBufs = nil
	b.r.Reset(nil)
	b.w.Reset(nil)
	c.srv.bufs.Put(b)
	c.srv.leased.Add(-1)
}
