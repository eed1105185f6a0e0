package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/trace"
)

// trial is one daemon lifetime: start, preload, replay the request budget
// once, read the counters, stop.
type trial struct {
	setup     time.Duration // daemon start-up plus preload
	elapsed   time.Duration // the timed replay
	serverCPU time.Duration
	clientCPU time.Duration
	steal     time.Duration // host steal time over the replay
	rssMB     float64
	counters  map[string]int64 // daemon counter differences over the replay
	open      *openResult      // open-loop schedule keeping; nil when closed
	tally
	tracers []*tracer
}

// e2e computes the end-to-end metrics of one trial.
func (t *trial) e2e() map[string]float64 {
	g := t.getLat.quantiles(0.5, 0.9, 0.99)
	s := t.setLat.quantiles(0.5, 0.9, 0.99)
	ops := float64(max(t.ops, 1))
	return map[string]float64{
		"throughput_ops":       float64(t.ops) / t.elapsed.Seconds(),
		"get_p50_us":           g[0],
		"get_p90_us":           g[1],
		"get_p99_us":           g[2],
		"set_p50_us":           s[0],
		"set_p90_us":           s[1],
		"set_p99_us":           s[2],
		"hit_rate":             float64(t.hits) / float64(max(t.gets, 1)),
		"failed_ratio":         float64(t.failed+t.mismatches) / ops,
		"server_cpu_us_per_op": float64(t.serverCPU.Microseconds()) / ops,
		"server_rss_mb":        t.rssMB,
		"setup_s":              t.setup.Seconds(),
	}
}

func (t *trial) clientCPUPerOp() float64 {
	return float64(t.clientCPU.Microseconds()) / float64(max(t.ops, 1))
}

// runTrial runs reqs once against a fresh daemon. With traced set, every
// round trip is recorded as a span.
func (b *bench) runTrial(reqs []trace.Request, traced bool, n int) (*trial, error) {
	w := b.w
	start := time.Now()
	logPath := filepath.Join(b.outDir, fmt.Sprintf("daemon-%s-seed%d-%d.log", w.name, b.seed, n))
	d, err := startDaemon(b.daemonBin, w.daemonArgs(), logPath)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	conns := make([]*wireConn, w.conns)
	for i := range conns {
		c, err := client.Dial(d.addr, 5*time.Second)
		if err != nil {
			return nil, fmt.Errorf("dial: %w", err)
		}
		defer c.Close()
		if !w.multiApp() {
			if err := c.SelectTenant(w.tenants[0].name); err != nil {
				return nil, err
			}
		}
		var tr *tracer
		if traced {
			tr = &tracer{epoch: start}
		}
		conns[i] = newWireConn(w, c, tr, "client")
	}
	if err := preload(w, d.addr); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	t := &trial{setup: time.Since(start)}

	admin, err := client.Dial(d.addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer admin.Close()
	before, err := daemonCounters(admin, w.tenants)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	steal0, err := hostSteal()
	if err != nil {
		return nil, err
	}
	if w.rate > 0 {
		res := runOpen(reqs, conns[0], w.rate)
		t.open = &res
		t.elapsed = res.elapsed
	} else {
		t.elapsed = runClosed(reqs, conns, w.depth)
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	self1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	steal1, err := hostSteal()
	if err != nil {
		return nil, err
	}
	t.serverCPU, t.clientCPU, t.steal = cpu1-cpu0, self1-self0, steal1-steal0
	if t.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	after, err := daemonCounters(admin, w.tenants)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	t.counters = make(map[string]int64, len(after))
	for k, v := range after {
		t.counters[k] = v - before[k]
	}
	for _, wc := range conns {
		t.merge(&wc.tally)
		if wc.tr != nil {
			t.tracers = append(t.tracers, wc.tr)
		}
	}
	return t, nil
}

// preload stores the workload's preload keys before timing. Every key has
// its own value, which the client's pipelined SET cannot
// send, so batches go out on a raw connection: one write and one read of
// the replies per batch.
func preload(w *workloadDef, addr string) error {
	reqs := w.preloadRequests()
	if len(reqs) == 0 {
		return nil
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	bw, br := bufio.NewWriterSize(conn, 64<<10), bufio.NewReader(conn)
	expect := func(n int, want string) error {
		if err := bw.Flush(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			line, err := br.ReadString('\n')
			if err != nil {
				return err
			}
			if line != want+"\r\n" {
				return fmt.Errorf("reply %q, want %s", line, want)
			}
		}
		return nil
	}
	fmt.Fprintf(bw, "tenant %s\r\n", w.tenants[0].name)
	if err := expect(1, "TENANT"); err != nil {
		return err
	}
	const batch = 256
	for lo := 0; lo < len(reqs); lo += batch {
		hi := min(lo+batch, len(reqs))
		for _, r := range reqs[lo:hi] {
			v := requestValue(r)
			fmt.Fprintf(bw, "set %s 0 0 %d\r\n%s\r\n", r.Key, len(v), v)
		}
		if err := expect(hi-lo, "STORED"); err != nil {
			return err
		}
	}
	return nil
}
