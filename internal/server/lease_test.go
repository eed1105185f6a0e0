package server

// Tests of the per-batch buffer lease: an idle connection waits in its small
// idle buffer, leases the 64 KiB pair when a command arrives (the leased
// reader replaying what the idle read took in), and returns it at the
// batch-boundary flush. Covered here: commands dribbled across segments and
// longer than the idle buffer, tenant stickiness across leases, pipelined
// batches racing the return, the stats gauges over the wire, shutdown with
// a thousand-plus idle connections, the lease-cycle allocation gate, and the
// drain wake-up at a boundary read.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitLeased blocks until exactly n connections hold a leased pair.
func waitLeased(t *testing.T, srv *Server, n int64) {
	t.Helper()
	waitCond(t, func() bool { return srv.ConnStats().ActiveSessions == n }, fmt.Sprintf("active_sessions == %d", n))
}

// TestLeaseTornCommandDribbled dribbles storage commands byte by byte, so
// each command's first byte ends an idle read and the rest arrives while the
// connection holds its lease mid-command; one of them is longer than the
// idle buffer. Then it sends whole commands and a pipelined batch longer
// than the idle buffer in one write, so the leased reader replays a full
// idle buffer before reading the tail. Every response must be exact, the
// lease must be held while a command is torn and returned once it is
// answered.
func TestLeaseTornCommandDribbled(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{ReadTimeout: 10 * time.Second})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	expectLine := func(what, want string) {
		t.Helper()
		line, err := r.ReadString('\n')
		if err != nil || strings.TrimRight(line, "\r\n") != want {
			t.Fatalf("%s: %q, %v; want %q", what, line, err, want)
		}
	}

	long := strings.Repeat("L", idleBufSize+100)
	values := []string{"v0000", "v0001", long}
	for i, v := range values {
		cmd := fmt.Sprintf("set torn%d 0 0 %d\r\n%s\r\n", i, len(v), v)
		for j := 0; j < len(cmd); j++ {
			if _, err := conn.Write([]byte{cmd[j]}); err != nil {
				t.Fatalf("round %d byte %d: %v", i, j, err)
			}
			if j == 0 {
				// The first byte ended the idle read: the connection now
				// holds its lease while the command is torn.
				waitLeased(t, srv, 1)
			}
			time.Sleep(100 * time.Microsecond)
		}
		expectLine(fmt.Sprintf("round %d", i), "STORED")
		waitLeased(t, srv, 0)
	}

	// A whole command longer than the idle buffer, then a pipelined batch
	// of short commands longer than it, each in one write.
	big := strings.Repeat("B", 4*idleBufSize)
	if _, err := fmt.Fprintf(conn, "set big 0 0 %d\r\n%s\r\n", len(big), big); err != nil {
		t.Fatal(err)
	}
	expectLine("big set", "STORED")
	var batch bytes.Buffer
	for batch.Len() <= idleBufSize {
		batch.WriteString("get torn0\r\n")
	}
	n := bytes.Count(batch.Bytes(), []byte("\n"))
	if _, err := conn.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		expectLine("batch VALUE", "VALUE torn0 0 5")
		expectLine("batch data", "v0000")
		expectLine("batch END", "END")
	}
	waitLeased(t, srv, 0)

	c := dialTest(t, srv)
	for i, want := range append(values, big) {
		key := fmt.Sprintf("torn%d", i)
		if i == len(values) {
			key = "big"
		}
		v, ok, err := c.Get(key)
		if err != nil || !ok || string(v) != want {
			t.Fatalf("%s = %d bytes ok=%v err=%v, want %d bytes", key, len(v), ok, err, len(want))
		}
	}
}

// TestLeaseTenantStickiness: the tenant a connection selected lives on the
// connection, not in the leased pair, so it survives every return and
// re-lease.
func TestLeaseTenantStickiness(t *testing.T) {
	srv, st := startGovernedServer(t, Config{})
	if err := st.RegisterTenant("app1", 8<<20); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	roundTrip := func(req, wantPrefix string) {
		t.Helper()
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil || !strings.HasPrefix(line, wantPrefix) {
			t.Fatalf("%q -> %q (%v), want prefix %q", req, line, err, wantPrefix)
		}
	}

	roundTrip("tenant app1\r\n", "TENANT")
	waitLeased(t, srv, 0)
	roundTrip("set sticky 0 0 2\r\nok\r\n", "STORED")
	waitLeased(t, srv, 0)

	if _, ok, err := st.Get("app1", "sticky"); err != nil || !ok {
		t.Fatalf("key not in app1: ok=%v err=%v", ok, err)
	}
	if _, ok, err := st.Get("default", "sticky"); err != nil || ok {
		t.Fatalf("key leaked to default tenant: ok=%v err=%v", ok, err)
	}
	roundTrip("get sticky\r\n", "VALUE sticky 0 2")
	r.ReadString('\n')
	r.ReadString('\n')
}

// TestLeaseRaceBatches: concurrent connections fire pipelined batches with
// randomized gaps, so batches land while leases are being returned, just
// returned, and re-leased. Every response must come back exact, under -race.
func TestLeaseRaceBatches(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{})

	const (
		conns  = 8
		rounds = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReader(conn)
			for i := 0; i < rounds; i++ {
				depth := 1 + rng.Intn(6)
				var req bytes.Buffer
				for d := 0; d < depth; d++ {
					fmt.Fprintf(&req, "set race-%d-%d 0 0 4\r\n%04d\r\n", w, d, i)
				}
				if _, err := conn.Write(req.Bytes()); err != nil {
					errs <- fmt.Errorf("conn %d round %d write: %w", w, i, err)
					return
				}
				for d := 0; d < depth; d++ {
					line, err := r.ReadString('\n')
					if err != nil || strings.TrimRight(line, "\r\n") != "STORED" {
						errs <- fmt.Errorf("conn %d round %d resp %d: %q %v", w, i, d, line, err)
						return
					}
				}
				time.Sleep(time.Duration(rng.Intn(400)) * time.Microsecond)
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < conns; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if srv.ConnStats().ConnPanics != 0 {
		t.Fatalf("conn_panics = %d", srv.ConnStats().ConnPanics)
	}
	waitLeased(t, srv, 0)
}

// TestLeaseStatsServed: the front-end gauges travel the whole distance —
// server counters -> "stats" wire lines -> the client's typed parser. Idle
// connections hold no lease; the stats request itself is mid-batch and
// holds one; a connection with a torn command holds one until it completes.
func TestLeaseStatsServed(t *testing.T) {
	srv, _ := startGovernedServer(t, Config{})

	idle := make([]net.Conn, 3)
	for i := range idle {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := fmt.Fprintf(conn, "set statskey%d 0 0 1\r\nx\r\n", i); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(make([]byte, 16)); err != nil {
			t.Fatal(err)
		}
		idle[i] = conn
	}
	waitLeased(t, srv, 0)

	c := dialTest(t, srv)
	cs, err := c.StatsConns()
	if err != nil {
		t.Fatal(err)
	}
	if cs.ActiveSessions != 1 {
		t.Fatalf("active_sessions = %d with 3 idle conns and the stats request mid-batch, want 1", cs.ActiveSessions)
	}
	if cs.CurrConnections != 4 || cs.TotalConnections != 4 {
		t.Fatalf("curr/total connections = %d/%d, want 4/4", cs.CurrConnections, cs.TotalConnections)
	}
	if pair := int64(2 * sessionBufSize); cs.BufferPoolBytes < pair || cs.BufferPoolBytes%pair != 0 {
		t.Fatalf("buffer_pool_bytes = %d, want a positive multiple of %d", cs.BufferPoolBytes, pair)
	}
	if cs.MemInuseBytes <= 0 {
		t.Fatalf("mem_inuse_bytes = %d, want > 0", cs.MemInuseBytes)
	}
	if cs.ConnPanics != 0 || cs.RejectedConnections != 0 {
		t.Fatalf("panics/rejected = %d/%d, want 0/0", cs.ConnPanics, cs.RejectedConnections)
	}

	// A torn command keeps its connection's lease until it completes. Wait
	// for the stats request's lease to come back first, so the next count
	// can only be the torn command's.
	waitLeased(t, srv, 0)
	if _, err := io.WriteString(idle[0], "set torn 0 0 5\r\nhe"); err != nil {
		t.Fatal(err)
	}
	waitLeased(t, srv, 1)
	if cs, err = c.StatsConns(); err != nil || cs.ActiveSessions != 2 {
		t.Fatalf("active_sessions = %v (%v) with a torn command and the stats request, want 2", cs, err)
	}
	if _, err := io.WriteString(idle[0], "llo\r\n"); err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(idle[0]).ReadString('\n'); err != nil || line != "STORED\r\n" {
		t.Fatalf("completed torn set = %q, %v", line, err)
	}
	waitLeased(t, srv, 0)
}

// TestShutdownThousandsIdle: Shutdown with a thousand-plus idle connections,
// each having taken the full request path once, must drain clean — nil
// error, every peer sees EOF, zero conn_timeouts, zero leaked goroutines —
// and none of them holds a lease while it waits.
func TestShutdownThousandsIdle(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv, _ := startGovernedServer(t, Config{IdleTimeout: time.Hour})

	const n = 1200
	conns := make([]net.Conn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	buf := make([]byte, 64)
	for i := 0; i < n; i++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		conns = append(conns, conn)
		if _, err := io.WriteString(conn, "version\r\n"); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("conn %d version: %v", i, err)
		}
	}
	waitLeased(t, srv, 0)
	if got := srv.ConnStats().CurrConnections; got != n {
		t.Fatalf("curr_connections = %d, want %d", got, n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}
	if got := srv.ConnStats().ConnTimeouts; got != 0 {
		t.Fatalf("conn_timeouts = %d after drain, want 0", got)
	}
	for i, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := conn.Read(buf); err != io.EOF {
			t.Fatalf("conn %d after drain: want EOF, got %v", i, err)
		}
	}
	waitGoroutinesBelow(t, baseline)
}

// TestAllocGateLeaseCycle pins the front end's allocation floor (run by
// `make alloccheck`): a depth-1 round trip over a real socket — idle read,
// lease, replay, serve, flush, return — allocates nothing amortized.
func TestAllocGateLeaseCycle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of returned items under the race detector")
	}
	srv, _ := startGovernedServer(t, Config{})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "set gatekey 0 0 3\r\nval\r\n"); err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(conn).ReadString('\n'); err != nil || line != "STORED\r\n" {
		t.Fatalf("set = %q, %v", line, err)
	}

	req := []byte("get gatekey\r\n")
	buf := make([]byte, 256)
	roundTrip := func() {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		got := 0
		for !bytes.HasSuffix(buf[:got], []byte("END\r\n")) {
			n, err := conn.Read(buf[got:])
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}
	for i := 0; i < 10; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("lease cycle allocates %.2f objects/op, want 0 amortized", allocs)
	}
}

// TestDrainWakeSurvivesBoundaryDeadlineClear: with no idle timeout, a
// boundary read clears the deadline the previous command armed. If Shutdown
// expired the deadline just before that clear, the clear erased the wake-up;
// the read must re-expire it and return a timeout promptly instead of
// blocking until the drain deadline forces the connection closed.
func TestDrainWakeSurvivesBoundaryDeadlineClear(t *testing.T) {
	srv := New(Config{}, nil)
	srv.draining.Store(true)
	local, peer := net.Pipe()
	defer local.Close()
	defer peer.Close()
	g := &governedConn{Conn: local, srv: srv, read: time.Second, armed: true}

	done := make(chan error, 1)
	go func() {
		_, err := g.Read(make([]byte, 16))
		done <- err
	}()
	select {
	case err := <-done:
		if ne, ok := asNetError(err); !ok || !ne.Timeout() {
			t.Fatalf("boundary read during drain = %v, want a timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("boundary read blocked: clearing the deadline erased the drain wake-up")
	}
}

// TestStatsMemInuseMatchesMemStats: mem_inuse_bytes comes from
// runtime/metrics, which does not stop the world, but must keep
// runtime.ReadMemStats' definition, HeapInuse+StackInuse — the connscale
// gate divides it by the connection count.
func TestStatsMemInuseMatchesMemStats(t *testing.T) {
	runtime.GC()
	got := memInuseBytes()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	want := ms.HeapInuse + ms.StackInuse
	diff := int64(got) - int64(want)
	if diff < 0 {
		diff = -diff
	}
	if tol := int64(want / 50); diff > tol {
		t.Fatalf("memInuseBytes = %d, ReadMemStats HeapInuse+StackInuse = %d: differ by %d, want <= %d", got, want, diff, tol)
	}
}
