package server

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/client"
	"cliffhanger/internal/store"
)

func startTestServer(t *testing.T, mode store.AllocationMode) (*Server, *store.Store) {
	t.Helper()
	st := store.New(store.Config{DefaultMode: mode, DefaultPolicy: cache.PolicyLRU})
	if err := st.RegisterTenant("default", 8<<20); err != nil {
		t.Fatal(err)
	}
	if err := st.RegisterTenant("app2", 4<<20); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, st
}

func dialTest(t *testing.T, srv *Server) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerSetGetDelete(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocCliffhanger)
	c := dialTest(t, srv)

	if _, ok, err := c.Get("missing"); err != nil || ok {
		t.Fatalf("get of missing key: ok=%v err=%v", ok, err)
	}
	if err := c.Set("greeting", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c.Get("greeting")
	if err != nil || !ok || string(v) != "hello world" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	if deleted, err := c.Delete("greeting"); err != nil || !deleted {
		t.Fatalf("delete = %v %v", deleted, err)
	}
	if deleted, _ := c.Delete("greeting"); deleted {
		t.Fatalf("second delete should report NOT_FOUND")
	}
	if v, err := c.Version(); err != nil || v == "" {
		t.Fatalf("version = %q %v", v, err)
	}
}

func TestServerBinaryValuesAndMultiGet(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocDefault)
	c := dialTest(t, srv)

	binary := make([]byte, 1024)
	for i := range binary {
		binary[i] = byte(i % 251)
	}
	binary[10] = '\r'
	binary[11] = '\n'
	if err := c.Set("binary", binary); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Set(fmt.Sprintf("k%d", i), []byte(strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.GetMulti([]string{"k0", "k3", "binary", "missing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("GetMulti returned %d values, want 3", len(got))
	}
	if string(got["k3"]) != "3" {
		t.Fatalf("k3 = %q", got["k3"])
	}
	if len(got["binary"]) != len(binary) {
		t.Fatalf("binary value corrupted: %d bytes", len(got["binary"]))
	}
	for i := range binary {
		if got["binary"][i] != binary[i] {
			t.Fatalf("binary value differs at byte %d", i)
		}
	}
}

func TestServerTenantIsolationAndStats(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocCliffhanger)
	c1 := dialTest(t, srv)
	c2 := dialTest(t, srv)

	if err := c1.Set("shared-key", []byte("tenant-default")); err != nil {
		t.Fatal(err)
	}
	if err := c2.SelectTenant("app2"); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get("shared-key"); ok {
		t.Fatalf("tenants must be isolated")
	}
	if err := c2.Set("shared-key", []byte("tenant-app2")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := c1.Get("shared-key")
	if !ok || string(v) != "tenant-default" {
		t.Fatalf("default tenant value clobbered: %q %v", v, ok)
	}
	stats, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["tenant"] != "app2" {
		t.Fatalf("stats tenant = %q", stats["tenant"])
	}
	if stats["cmd_set"] == "" || stats["hit_rate"] == "" {
		t.Fatalf("stats missing fields: %v", stats)
	}
	// Epoch-reclamation counters reach the client: epoch_current is at least
	// the arena's initial epoch (1), and the other two parse as integers.
	if epoch, err := strconv.ParseUint(stats["epoch_current"], 10, 64); err != nil || epoch == 0 {
		t.Fatalf("stats epoch_current = %q (%v), want a positive integer", stats["epoch_current"], err)
	}
	if _, err := strconv.ParseInt(stats["epoch_quarantined_chunks"], 10, 64); err != nil {
		t.Fatalf("stats epoch_quarantined_chunks = %q: %v", stats["epoch_quarantined_chunks"], err)
	}
	if _, err := strconv.ParseInt(stats["epoch_deferred_frees"], 10, 64); err != nil {
		t.Fatalf("stats epoch_deferred_frees = %q: %v", stats["epoch_deferred_frees"], err)
	}
	slabs, err := c2.StatsSlabs()
	if err != nil {
		t.Fatal(err)
	}
	if slabs["active_slabs"] == "" || slabs["total_malloced"] == "" {
		t.Fatalf("stats slabs missing totals: %v", slabs)
	}
	sawClass, sawQuarantined := false, false
	for k := range slabs {
		if strings.HasSuffix(k, ":used_chunks") {
			sawClass = true
		}
		if strings.HasSuffix(k, ":quarantined_chunks") {
			sawQuarantined = true
		}
	}
	if !sawClass {
		t.Fatalf("stats slabs reports no class lines for a tenant with a resident value: %v", slabs)
	}
	if !sawQuarantined {
		t.Fatalf("stats slabs reports no quarantined_chunks lines: %v", slabs)
	}
	if err := c2.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c2.Get("shared-key"); ok {
		t.Fatalf("flush_all did not clear tenant")
	}
}

func TestServerUnknownCommandRecovers(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocDefault)
	c := dialTest(t, srv)
	// A single-line command with an invalid key (too long) draws a
	// CLIENT_ERROR but must leave the connection usable.
	longKey := make([]byte, 300)
	for i := range longKey {
		longKey[i] = 'k'
	}
	if _, err := c.Delete(string(longKey)); err == nil {
		t.Fatalf("over-long key should produce an error")
	}
	// Connection must still work afterwards.
	if err := c.Set("good-key", []byte("x")); err != nil {
		t.Fatalf("connection unusable after protocol error: %v", err)
	}
}

// TestServerPipelinedCommands writes a whole batch of commands in one TCP
// segment and checks every response arrives, in order, from the parse-ahead
// write path.
func TestServerPipelinedCommands(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocCliffhanger)
	c := dialTest(t, srv)

	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("p%d", i)
	}
	if err := c.PipelineSet(keys, []byte("vvv")); err != nil {
		t.Fatal(err)
	}
	got, err := c.PipelineGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("pipelined get returned %d of %d values", len(got), len(keys))
	}
	for _, k := range keys {
		if string(got[k]) != "vvv" {
			t.Fatalf("%s = %q", k, got[k])
		}
	}
	// A batch mixing verbs, including a failing one mid-stream, must still
	// produce one response per command in order.
	if err := c.Set("x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PipelineGet([]string{"x", "missing", "x"}); err != nil {
		t.Fatal(err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocCliffhanger)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr(), 2*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("w%d-k%d", id, i%50)
				if err := c.Set(key, []byte("value")); err != nil {
					errs <- err
					return
				}
				if _, _, err := c.Get(key); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.Ops.Ops() == 0 {
		t.Fatalf("server recorded no operations")
	}
	if srv.GetLatency.Count() == 0 || srv.SetLatency.Count() == 0 {
		t.Fatalf("latency histograms empty")
	}
}

// BenchmarkServerPipelined measures end-to-end server throughput at
// pipeline depths 1 (closed-loop request/response) and 64 (batched): the
// parse-ahead write path should make deep pipelines several times cheaper
// per operation by amortizing flush syscalls across the batch. Depth 1 also
// pays a buffer lease and return per request, depth 64 once per batch.
// allocs/op covers client and server together (they share the process
// here); the server-side floor is pinned separately by
// TestAllocGateServerGet and TestAllocGateLeaseCycle.
func BenchmarkServerPipelined(b *testing.B) {
	for _, depth := range []int{1, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			st := store.New(store.Config{DefaultMode: store.AllocCliffhanger, DefaultPolicy: cache.PolicyLRU})
			defer st.Close()
			if err := st.RegisterTenant("default", 64<<20); err != nil {
				b.Fatal(err)
			}
			srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := client.Dial(srv.Addr(), 2*time.Second)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			const nKeys = 1 << 12
			keys := make([]string, nKeys)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d", i)
			}
			if err := c.PipelineSet(keys, make([]byte, 128)); err != nil {
				b.Fatal(err)
			}
			batch := make([]string, depth)
			b.ResetTimer()
			for done := 0; done < b.N; done += depth {
				for j := range batch {
					batch[j] = keys[(done+j)&(nKeys-1)]
				}
				if depth == 1 {
					if _, _, err := c.Get(batch[0]); err != nil {
						b.Fatal(err)
					}
					continue
				}
				if _, err := c.PipelineGet(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestServerAddReplaceSemantics pins the memcached semantics of add and
// replace (formerly silent aliases of set): add fails on existing keys,
// replace fails on missing ones.
func TestServerAddReplaceSemantics(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocDefault)
	c := dialTest(t, srv)

	if stored, err := c.Add("k", []byte("v1"), 0, 0); err != nil || !stored {
		t.Fatalf("add of fresh key = %v %v", stored, err)
	}
	if stored, err := c.Add("k", []byte("v2"), 0, 0); err != nil || stored {
		t.Fatalf("add of existing key must return NOT_STORED: %v %v", stored, err)
	}
	if v, _, _ := c.Get("k"); string(v) != "v1" {
		t.Fatalf("failed add clobbered value: %q", v)
	}
	if stored, err := c.Replace("missing", []byte("x"), 0, 0); err != nil || stored {
		t.Fatalf("replace of missing key must return NOT_STORED: %v %v", stored, err)
	}
	if stored, err := c.Replace("k", []byte("v3"), 0, 0); err != nil || !stored {
		t.Fatalf("replace of existing key = %v %v", stored, err)
	}
	if v, _, _ := c.Get("k"); string(v) != "v3" {
		t.Fatalf("replace not applied: %q", v)
	}
}

// TestServerFlagsRoundTrip pins the fix for GET always echoing flags as 0:
// the flags stored by SET must come back on VALUE lines.
func TestServerFlagsRoundTrip(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocDefault)
	c := dialTest(t, srv)

	if err := c.SetWithOptions("k", []byte("v"), 12345, 0); err != nil {
		t.Fatal(err)
	}
	data, flags, cas, ok, err := c.Gets("k")
	if err != nil || !ok {
		t.Fatalf("gets = %v %v", ok, err)
	}
	if string(data) != "v" || flags != 12345 || cas == 0 {
		t.Fatalf("gets returned data=%q flags=%d cas=%d", data, flags, cas)
	}
}

// TestServerProtocolConformance drives every supported verb over a raw TCP
// socket and checks the exact response lines, memcached-style. CI runs this
// test as its protocol-conformance gate.
func TestServerProtocolConformance(t *testing.T) {
	srv, _ := startTestServer(t, store.AllocDefault)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)

	send := func(s string) {
		t.Helper()
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want ...string) {
		t.Helper()
		for _, w := range want {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reading response (want %q): %v", w, err)
			}
			if got := strings.TrimRight(line, "\r\n"); got != w {
				t.Fatalf("response = %q, want %q", got, w)
			}
		}
	}

	// Storage verbs.
	send("set k 5 0 5\r\nhello\r\n")
	expect("STORED")
	send("get k\r\n")
	expect("VALUE k 5 5", "hello", "END")
	send("add k 0 0 1\r\nx\r\n")
	expect("NOT_STORED")
	send("add fresh 0 0 1\r\nx\r\n")
	expect("STORED")
	send("replace ghost 0 0 1\r\nx\r\n")
	expect("NOT_STORED")
	send("replace k 6 0 3\r\nnew\r\n")
	expect("STORED")

	// append / prepend.
	send("append ghost 0 0 1\r\n!\r\n")
	expect("NOT_STORED")
	send("append k 0 0 1\r\n!\r\n")
	expect("STORED")
	send("prepend k 0 0 1\r\n>\r\n")
	expect("STORED")
	send("get k\r\n")
	expect("VALUE k 6 5", ">new!", "END")

	// gets / cas.
	send("gets k\r\n")
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(strings.TrimRight(line, "\r\n"))
	if len(fields) != 5 || fields[0] != "VALUE" || fields[1] != "k" || fields[2] != "6" {
		t.Fatalf("gets VALUE line = %q", line)
	}
	casTok := fields[4]
	expect(">new!", "END")
	send("cas k 0 0 3 " + casTok + "\r\ncc1\r\n")
	expect("STORED")
	send("cas k 0 0 3 " + casTok + "\r\ncc2\r\n")
	expect("EXISTS")
	send("cas ghost 0 0 1 1\r\nx\r\n")
	expect("NOT_FOUND")
	send("get k\r\n")
	expect("VALUE k 0 3", "cc1", "END")

	// touch.
	send("touch k 100\r\n")
	expect("TOUCHED")
	send("touch ghost 100\r\n")
	expect("NOT_FOUND")

	// incr / decr.
	send("set n 0 0 2\r\n10\r\n")
	expect("STORED")
	send("incr n 5\r\n")
	expect("15")
	send("decr n 100\r\n")
	expect("0")
	send("incr ghost 1\r\n")
	expect("NOT_FOUND")
	send("incr k 1\r\n")
	expect("CLIENT_ERROR cannot increment or decrement non-numeric value")

	// Expiry: a negative exptime is dead on arrival.
	send("set dead 0 -1 1\r\nx\r\n")
	expect("STORED")
	send("get dead\r\n")
	expect("END")

	// delete, stats, flush_all, version, tenant.
	send("delete k\r\n")
	expect("DELETED")
	send("delete k\r\n")
	expect("NOT_FOUND")
	send("tenant app2\r\n")
	expect("TENANT")
	send("flush_all\r\n")
	expect("OK")
	send("version\r\n")
	line, err = r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "VERSION ") {
		t.Fatalf("version = %q %v", line, err)
	}
	send("stats\r\n")
	sawEnd := false
	sawEpoch := false
	for i := 0; i < 64; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		l := strings.TrimRight(line, "\r\n")
		if l == "END" {
			sawEnd = true
			break
		}
		if !strings.HasPrefix(l, "STAT ") {
			t.Fatalf("stats line = %q", l)
		}
		if strings.HasPrefix(l, "STAT epoch_current ") {
			sawEpoch = true
		}
	}
	if !sawEnd {
		t.Fatalf("stats response not terminated by END")
	}
	if !sawEpoch {
		t.Fatalf("stats response missing epoch_current")
	}

	// stats slabs: per-class arena occupancy from the slab-arena accounting.
	// A resident value means at least one class line (chunk_size, pages,
	// used/free chunks) plus the active_slabs/total_malloced footer.
	send("set slabbed 0 0 100\r\n" + strings.Repeat("s", 100) + "\r\n")
	expect("STORED")
	send("stats slabs\r\n")
	sawEnd = false
	sawChunkSize, sawUsed, sawMalloced := false, false, false
	for i := 0; i < 128; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		l := strings.TrimRight(line, "\r\n")
		if l == "END" {
			sawEnd = true
			break
		}
		if !strings.HasPrefix(l, "STAT ") {
			t.Fatalf("stats slabs line = %q", l)
		}
		switch {
		case strings.Contains(l, ":chunk_size "):
			sawChunkSize = true
		case strings.Contains(l, ":used_chunks "):
			sawUsed = true
		case strings.HasPrefix(l, "STAT total_malloced "):
			sawMalloced = true
		}
	}
	if !sawEnd || !sawChunkSize || !sawUsed || !sawMalloced {
		t.Fatalf("stats slabs incomplete: end=%v chunk_size=%v used_chunks=%v total_malloced=%v",
			sawEnd, sawChunkSize, sawUsed, sawMalloced)
	}
	// An unknown stats sub-command draws ERROR, like memcached.
	send("stats bogus\r\n")
	expect("ERROR")

	// noreply storage writes produce no response.
	send("set quiet 0 0 1 noreply\r\nq\r\nget quiet\r\n")
	expect("VALUE quiet 0 1", "q", "END")

	// flush_all optional arguments: a delay is accepted (and arms a delayed
	// flush rather than clearing anything now)...
	send("flush_all 30\r\n")
	expect("OK")
	send("get quiet\r\n")
	expect("VALUE quiet 0 1", "q", "END")
	// ...noreply suppresses the OK, and the flush still executes — the very
	// next command's response is the first thing on the wire.
	send("flush_all noreply\r\nget quiet\r\n")
	expect("END")
	// Combined form.
	send("flush_all 10 noreply\r\nversion\r\n")
	line, err = r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "VERSION ") {
		t.Fatalf("response after flush_all 10 noreply = %q %v", line, err)
	}
	// A malformed delay draws CLIENT_ERROR and keeps the session usable.
	send("flush_all soon\r\n")
	line, err = r.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "CLIENT_ERROR") {
		t.Fatalf("flush_all soon = %q %v", line, err)
	}

	send("quit\r\n")
}

// TestServerDelayedFlushAllEndToEnd drives the delayed flush_all semantics
// over the wire with a stubbed clock: items last written before the deadline
// (even ones set after the command) die exactly when it passes; later writes
// survive.
func TestServerDelayedFlushAllEndToEnd(t *testing.T) {
	clock := time.Now().Unix()
	var offset atomic.Int64
	st := store.New(store.Config{
		DefaultMode:     store.AllocDefault,
		DefaultPolicy:   cache.PolicyLRU,
		SyncBookkeeping: true,
		Now:             func() int64 { return clock + offset.Load() },
	})
	if err := st.RegisterTenant("default", 8<<20); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Close() })

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(s string) {
		t.Helper()
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(want ...string) {
		t.Helper()
		for _, w := range want {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("reading response (want %q): %v", w, err)
			}
			if got := strings.TrimRight(line, "\r\n"); got != w {
				t.Fatalf("response = %q, want %q", got, w)
			}
		}
	}

	send("set before 0 0 1\r\nb\r\n")
	expect("STORED")
	send("flush_all 5\r\n")
	expect("OK")
	send("get before\r\n")
	expect("VALUE before 0 1", "b", "END")
	send("set during 0 0 1\r\nd\r\n")
	expect("STORED")

	offset.Store(5)
	send("get before\r\nget during\r\n")
	expect("END", "END")
	send("set after 0 0 1\r\na\r\nget after\r\n")
	expect("STORED", "VALUE after 0 1", "a", "END")
}

// TestServerExpiryEndToEnd checks that expired items are never served over
// the wire: a short relative TTL set through the protocol stops being
// returned after its deadline.
func TestServerExpiryEndToEnd(t *testing.T) {
	clock := time.Now().Unix()
	var offset atomic.Int64
	st := store.New(store.Config{
		DefaultMode:   store.AllocDefault,
		DefaultPolicy: cache.PolicyLRU,
		Now:           func() int64 { return clock + offset.Load() },
	})
	if err := st.RegisterTenant("default", 8<<20); err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Addr: "127.0.0.1:0", DefaultTenant: "default"}, st)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(); st.Close() })
	c := dialTest(t, srv)

	if err := c.SetWithOptions("ttl", []byte("v"), 0, 30); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("ttl"); !ok {
		t.Fatalf("key should be live before its deadline")
	}
	offset.Store(30)
	if _, ok, _ := c.Get("ttl"); ok {
		t.Fatalf("expired key must not be returned")
	}
	// Touch can rescue a key before the deadline.
	if err := c.SetWithOptions("t2", []byte("v"), 0, 30); err != nil {
		t.Fatal(err)
	}
	if ok, err := c.Touch("t2", 600); err != nil || !ok {
		t.Fatalf("touch = %v %v", ok, err)
	}
	offset.Store(90)
	if _, ok, _ := c.Get("t2"); !ok {
		t.Fatalf("touched key should outlive its original TTL")
	}
}

// TestServerArbiterStats drives the "stats arbiter" verb and the per-tenant
// arbitration fields of plain "stats" over a real socket against a memshare
// store, and exercises the client-side typed parser: after the arbiter moves
// memory toward the loaded tenant, both surfaces must agree on the lease,
// floor and move count.
func TestServerArbiterStats(t *testing.T) {
	srv, st := startTestServer(t, store.AllocMemshare)
	c := dialTest(t, srv)

	// Load the default tenant far past its partition so its shadow queues
	// light up, leaving app2 idle.
	value := make([]byte, 4096)
	for i := 0; i < 6000; i++ {
		key := fmt.Sprintf("arb-%d", i)
		if _, ok, err := c.Get(key); err != nil {
			t.Fatal(err)
		} else if !ok {
			if err := c.Set(key, value); err != nil {
				t.Fatal(err)
			}
		}
		if i%1000 == 999 {
			st.ArbiterTick()
		}
	}

	as, err := c.StatsArbiter()
	if err != nil {
		t.Fatal(err)
	}
	want := st.ArbiterStats()
	if as.Moves != want.Moves || as.LastMove != want.LastMove {
		t.Fatalf("parsed moves=%d last=%q, store says moves=%d last=%q",
			as.Moves, as.LastMove, want.Moves, want.LastMove)
	}
	for _, name := range []string{"default", "app2"} {
		got, ok := as.Tenants[name]
		if !ok {
			t.Fatalf("stats arbiter missing tenant %s: %+v", name, as)
		}
		w := want.Tenants[name]
		if !got.Arbitrated || got.LeasePages != w.LeasePages ||
			got.ReservedPages != w.ReservedPages || got.TargetBytes != w.TargetBytes {
			t.Fatalf("tenant %s parsed %+v, store says %+v", name, got, w)
		}
	}
	// app2's floor is half its 4 MiB registration: 2 pages under the default
	// 1 MiB page geometry.
	if as.Tenants["app2"].ReservedPages != 2 {
		t.Fatalf("app2 reserved_pages = %d, want 2", as.Tenants["app2"].ReservedPages)
	}

	// The plain per-tenant stats verb carries the same arbitration fields.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats["reserved_pages"]; got != strconv.FormatInt(want.Tenants["default"].ReservedPages, 10) {
		t.Fatalf("stats reserved_pages = %q, want %d", got, want.Tenants["default"].ReservedPages)
	}
	if got := stats["arbiter_moves"]; got != strconv.FormatInt(want.Moves, 10) {
		t.Fatalf("stats arbiter_moves = %q, want %d", got, want.Moves)
	}
	if _, err := strconv.ParseFloat(stats["marginal_hit_per_byte"], 64); err != nil {
		t.Fatalf("stats marginal_hit_per_byte = %q: %v", stats["marginal_hit_per_byte"], err)
	}
	if _, err := strconv.ParseInt(stats["target_bytes"], 10, 64); err != nil {
		t.Fatalf("stats target_bytes = %q: %v", stats["target_bytes"], err)
	}
}
