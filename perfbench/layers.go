package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"cliffhanger/internal/cache"
	"cliffhanger/internal/client"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/server"
	"cliffhanger/internal/sim"
	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
)

// layerPrefix caps how much of the stream the in-process layer replays use.
const layerPrefix = 200000

// spanEvery samples per-call spans: one request in spanEvery gets its
// store and protocol spans written out, while every call is timed.
const spanEvery = 32

// layerResult collects the per-layer metrics of a traced run and the
// correctness of everything it replayed.
type layerResult struct {
	metrics map[string]float64
	units   map[string]string
	line    resultLine
}

func (l *layerResult) add(name string, v float64, unit string) {
	l.metrics[name] = v
	l.units[name] = unit
}

// traceRun is the -trace 1 measurement: untraced and traced trials
// alternate (so drift hits both alike) to price tracing, then the stream is
// replayed in-process through each layer.
func (b *bench) traceRun(reqs []trace.Request, genTime time.Duration, rec map[string]any) (resultLine, error) {
	epoch := time.Now()
	var plain, traced []*trial
	var timed time.Duration
	for len(plain) == 0 || timed < b.seconds {
		for _, tr := range []bool{false, true} {
			t, err := b.runTrial(reqs, tr, len(plain)+len(traced))
			if err != nil {
				return resultLine{}, err
			}
			fmt.Printf("traced=%v ", tr)
			printTrial(len(plain)+len(traced), t)
			timed += t.elapsed
			if tr {
				traced = append(traced, t)
			} else {
				plain = append(plain, t)
			}
		}
	}
	res := &layerResult{metrics: map[string]float64{}, units: map[string]string{},
		line: resultLine{Correct: true, Metrics: map[string]metric{}}}
	tallyLine(&res.line, slices.Concat(plain, traced))

	pm, tm := medians(plain, (*trial).e2e), medians(traced, (*trial).e2e)
	for _, k := range boundedE2E {
		res.add("overhead."+k, tm[k]-pm[k], e2eUnits[k])
	}
	res.add("wire.hit_rate", pm["hit_rate"], "ratio")
	res.add("wire.get_p99_us", pm["get_p99_us"], "us")
	res.add("wire.set_p99_us", pm["set_p99_us"], "us")
	wire := medians(plain, func(t *trial) map[string]float64 {
		return map[string]float64{
			"moves":    float64(t.counters["arbiter_moves"]),
			"lag":      t.lag.quantiles(0.99)[0],
			"cpu":      t.clientCPUPerOp(),
			"deferred": float64(t.counters["epoch_deferred_frees"]) / float64(max(t.counters["cmd_set"], 1)),
		}
	})
	res.add("arbiter.moves", wire["moves"], "count")
	res.add("bench.sched_lag_p99_us", wire["lag"], "us")
	res.add("bench.client_cpu_us_per_op", wire["cpu"], "us")
	res.add("daemon.deferred_frees_per_set", wire["deferred"], "count/set")
	res.add("workload.gen_ns_per_req", float64(genTime.Nanoseconds())/float64(len(reqs)), "ns")

	prefix := reqs[:min(len(reqs), layerPrefix)]
	lt := &tracer{epoch: epoch}
	steps := []func(*layerResult, []trace.Request, *tracer) error{
		b.traceProtocol, b.traceStore, b.traceCore, b.traceServer,
	}
	for _, step := range steps {
		if err := step(res, prefix, lt); err != nil {
			return resultLine{}, err
		}
	}

	// Every traced trial records its spans; the first one's are written
	// out, which keeps the file to one replay of the budget.
	tracers := append(traced[0].tracers, lt)
	path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.csv", b.w.name, b.seed))
	n, err := writeSpans(path, epoch, tracers)
	if err != nil {
		return resultLine{}, err
	}
	fmt.Printf("wrote %d spans to %s\n", n, path)
	rec["trials_untraced"] = trialRecords(plain)
	rec["trials_traced"] = trialRecords(traced)
	rec["per_layer"] = res.metrics
	fmt.Println("per layer:")
	for _, k := range sortedKeys(res.metrics) {
		fmt.Printf("  %-36s %14.4f %s\n", k, res.metrics[k], res.units[k])
		res.line.Metrics[k] = metric{res.metrics[k], res.units[k]}
	}
	return res.line, nil
}

// timerCost is what one time.Now call adds to an interval it brackets;
// per-call layer timings subtract it.
func timerCost() time.Duration {
	const n = 100000
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Now()
	}
	return time.Since(start) / n
}

// encodeRequests renders reqs as the memcached text a client sends for them
// (tenant switches included, read-through fills not).
func (b *bench) encodeRequests(reqs []trace.Request) ([]byte, int) {
	var buf []byte
	cmds, cur := 0, 0
	for _, r := range reqs {
		if b.w.multiApp() && r.App != cur {
			buf = append(buf, "tenant "+b.w.tenantFor(r.App)+"\r\n"...)
			cur = r.App
			cmds++
		}
		switch r.Op {
		case trace.OpGet:
			buf = append(append(append(buf, "get "...), r.Key...), "\r\n"...)
		case trace.OpSet:
			v := requestValue(r)
			buf = append(append(append(buf, "set "...), r.Key...), " 0 0 "+strconv.Itoa(len(v))+"\r\n"...)
			buf = append(append(buf, v...), "\r\n"...)
		case trace.OpDelete:
			buf = append(append(append(buf, "delete "...), r.Key...), "\r\n"...)
		}
		cmds++
	}
	return buf, cmds
}

// traceProtocol times Parser.ReadCommand over the workload's own request
// bytes: three passes, the median pass reported, spans from the first.
func (b *bench) traceProtocol(res *layerResult, reqs []trace.Request, tr *tracer) error {
	buf, want := b.encodeRequests(reqs)
	var perCmd []float64
	for pass := 0; pass < 3; pass++ {
		root := int32(-1)
		if pass == 0 {
			root = tr.begin("protocol.parse", -1, -1)
		}
		// The server reads through 64 KiB session buffers.
		p := protocol.NewParser(bufio.NewReaderSize(bytes.NewReader(buf), 64<<10))
		n := 0
		start := time.Now()
		chunkStart := start
		for {
			_, err := p.ReadCommand()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return fmt.Errorf("protocol: command %d: %w", n, err)
			}
			n++
			if pass == 0 && n%64 == 0 {
				now := time.Now()
				tr.record("protocol.read_command_x64", root, -1, chunkStart, now)
				chunkStart = now
			}
		}
		elapsed := time.Since(start)
		if pass == 0 {
			tr.end(root)
		}
		if n != want {
			return fmt.Errorf("protocol: parsed %d commands, encoded %d", n, want)
		}
		perCmd = append(perCmd, float64(elapsed.Nanoseconds())/float64(n))
	}
	res.add("protocol.parse_ns_per_cmd", median(perCmd), "ns")
	return nil
}

// newStore builds an in-process store configured like the daemon. The
// arbiter's background ticker is left off when the caller ticks it itself.
func (b *bench) newStore(background bool) (*store.Store, error) {
	policy, _ := cache.ParsePolicyKind("lru")
	cfg := store.Config{DefaultMode: b.w.mode, DefaultPolicy: policy}
	if b.w.mode == store.AllocMemshare && background {
		cfg.Arbiter = store.ArbiterConfig{Interval: b.w.arbiter}
	}
	st := store.New(cfg)
	for _, t := range b.w.tenants {
		if err := st.RegisterTenant(t.name, t.mb<<20); err != nil {
			st.Close()
			return nil, err
		}
	}
	return st, nil
}

// traceStore replays reqs with read-through fill through GetItemView and
// SetItemBytes, draining the bookkeeper every drainEvery operations and
// ticking the arbiter at the simulator's request cadence; then it shrinks
// the busiest tenant to half its lease and times the page migration.
func (b *bench) traceStore(res *layerResult, reqs []trace.Request, tr *tracer) error {
	const drainEvery = 1024
	st, err := b.newStore(false)
	if err != nil {
		return err
	}
	defer st.Close()
	tc := timerCost()
	var (
		gets, hits, sets, ops, failed, mismatches, ticks int64
		getT, setT, tickT, drainT                        time.Duration
		key                                              []byte
	)
	for _, r := range b.w.preloadRequests() {
		if err := st.SetItemBytes(b.w.tenants[0].name, []byte(r.Key), requestValue(r), 0, 0); err != nil {
			return fmt.Errorf("store preload: %w", err)
		}
	}
	root := tr.begin("store.replay", -1, -1)
	set := func(tenant string, r trace.Request, req int) {
		v := requestValue(r)
		key = append(key[:0], r.Key...)
		t0 := time.Now()
		err := st.SetItemBytes(tenant, key, v, 0, 0)
		t1 := time.Now()
		setT += t1.Sub(t0) - tc
		sets++
		if req%spanEvery == 0 {
			tr.record("store.set", root, int64(req), t0, t1)
		}
		if _, fits := geometry.ClassFor(int64(len(key) + len(v))); err != nil && fits {
			failed++
		}
	}
	for i, r := range reqs {
		tenant := b.w.tenantFor(r.App)
		switch r.Op {
		case trace.OpGet:
			key = append(key[:0], r.Key...)
			t0 := time.Now()
			view, ok, err := st.GetItemView(tenant, key)
			t1 := time.Now()
			if ok && !valueOK(r.Key, view.Value) {
				mismatches++
			}
			t2 := time.Now()
			view.Release()
			t3 := time.Now()
			getT += t1.Sub(t0) + t3.Sub(t2) - 2*tc
			gets++
			if i%spanEvery == 0 {
				tr.record("store.get", root, int64(i), t0, t3)
			}
			if err != nil {
				failed++
			} else if ok {
				hits++
			} else {
				set(tenant, r, i)
			}
			if gets%store.DefaultArbiterEvery == 0 {
				t0 := time.Now()
				st.ArbiterTick()
				t1 := time.Now()
				tickT += t1.Sub(t0)
				ticks++
				tr.record("arbiter.tick", root, int64(i), t0, t1)
			}
		case trace.OpSet:
			set(tenant, r, i)
		case trace.OpDelete:
			if _, err := st.Delete(tenant, r.Key); err != nil {
				failed++
			}
		}
		ops++
		if ops%drainEvery == 0 {
			t0 := time.Now()
			st.Flush()
			t1 := time.Now()
			drainT += t1.Sub(t0)
			tr.record("bookkeeper.drain", root, int64(i), t0, t1)
		}
	}
	st.Flush()
	tr.end(root)
	if failed > 0 || mismatches > 0 {
		res.line.Correct = false
	}
	res.line.Attempted += ops
	res.line.Failed += failed + mismatches

	var dropped, deferred int64
	busiest, ps := "", st.PageStats()
	for _, t := range b.w.tenants {
		d, err := st.DroppedEvents(t.name)
		if err != nil {
			return err
		}
		rs, err := st.ReclaimStats(t.name)
		if err != nil {
			return err
		}
		dropped += d
		deferred += rs.DeferredFrees
		if busiest == "" || ps.Leases[t.name] > ps.Leases[busiest] {
			busiest = t.name
		}
	}
	res.add("store.get_ns", float64(getT.Nanoseconds())/float64(max(gets, 1)), "ns")
	res.add("store.set_ns", float64(setT.Nanoseconds())/float64(max(sets, 1)), "ns")
	res.add("store.hit_ratio", float64(hits)/float64(max(gets, 1)), "ratio")
	res.add("bookkeeper.drain_ns_per_op", float64(drainT.Nanoseconds())/float64(max(ops, 1)), "ns")
	res.add("bookkeeper.dropped_events_per_kop", 1000*float64(dropped)/float64(max(ops, 1)), "count/kop")
	res.add("arbiter.tick_us", float64(tickT.Microseconds())/float64(max(ticks, 1)), "us")
	res.add("arena.deferred_frees_per_set", float64(deferred)/float64(max(sets, 1)), "count/set")

	// Shrink the busiest tenant to half its lease and time the pages
	// migrating out. The lease may stop short of the target, so the rate
	// runs up to the last page that moved.
	lease := ps.Leases[busiest]
	target := lease / 2 * ps.PageSize
	span := tr.begin("arena.migrate", -1, -1)
	start := time.Now()
	if err := st.ResizeTenant(busiest, target); err != nil {
		return err
	}
	now, lastMove := lease, start
	for now*ps.PageSize > target && time.Since(lastMove) < 500*time.Millisecond {
		time.Sleep(100 * time.Microsecond)
		if n := st.PageStats().Leases[busiest]; n != now {
			now, lastMove = n, time.Now()
		}
	}
	tr.end(span)
	elapsed := lastMove.Sub(start)
	moved := float64((lease-now)*ps.PageSize) / (1 << 20)
	fmt.Printf("arena: shrank %s from %d to %d pages, %.1f MiB in %v\n", busiest, lease, now, moved, elapsed)
	res.add("arena.migrate_mib_s", moved/max(elapsed.Seconds(), 1e-9), "MiB/s")
	return nil
}

// traceCore replays reqs through internal/sim, the core.Manager accounting
// engine without a store or a network.
func (b *bench) traceCore(res *layerResult, reqs []trace.Request, tr *tracer) error {
	apps, err := b.w.apps()
	if err != nil {
		return err
	}
	// The preload goes in as SETs ahead of the stream, so the simulator
	// starts from the same cache contents as the wire and store replays.
	src := append(b.w.preloadRequests(), reqs...)
	span := tr.begin("core.replay", -1, -1)
	start := time.Now()
	r, err := sim.Run(sim.Config{Apps: apps, Mode: b.w.mode}, trace.NewSliceSource(src))
	elapsed := time.Since(start)
	tr.end(span)
	if err != nil {
		return err
	}
	res.add("core.replay_ns_per_req", float64(elapsed.Nanoseconds())/float64(len(src)), "ns")
	res.add("core.hit_rate", r.HitRate(), "ratio")
	return nil
}

// traceServer drives an in-process server.New over one client connection
// at the workload's depth. Its self time is the round trip minus what the
// protocol and store replays say the commands in it cost.
func (b *bench) traceServer(res *layerResult, reqs []trace.Request, tr *tracer) error {
	st, err := b.newStore(true)
	if err != nil {
		return err
	}
	defer st.Close()
	srv := server.New(server.Config{Addr: "127.0.0.1:0", DefaultTenant: b.w.tenants[0].name}, st)
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	c, err := client.Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	wc := newWireConn(b.w, c, tr, "server")
	root := tr.begin("server.replay", -1, -1)
	first := len(tr.spans)
	if err := preload(b.w, srv.Addr()); err != nil {
		return err
	}
	wc.runChunk(reqs, 0)
	tr.end(root)
	for i := first; i < len(tr.spans); i++ {
		if tr.spans[i].parent == -1 {
			tr.spans[i].parent = root
		}
	}
	if wc.failed > 0 || wc.mismatches > 0 {
		res.line.Correct = false
	}
	res.line.Attempted += wc.ops
	res.line.Failed += wc.failed + wc.mismatches

	rtts := int64(len(wc.getLat) + len(wc.setLat))
	var total int64
	for _, s := range [][]int64{wc.getLat, wc.setLat} {
		for _, d := range s {
			total += d
		}
	}
	inner := float64(wc.gets+wc.sets)*res.metrics["protocol.parse_ns_per_cmd"] +
		float64(wc.gets)*res.metrics["store.get_ns"] + float64(wc.sets)*res.metrics["store.set_ns"]
	res.add("server.rtt_us", float64(total)/float64(max(rtts, 1))/1e3, "us")
	res.add("server.self_us", (float64(total)-inner)/float64(max(rtts, 1))/1e3, "us")
	return nil
}

// writeSpans writes every tracer's spans as CSV with ids unique across
// tracers; times are nanoseconds since epoch.
func writeSpans(path string, epoch time.Time, tracers []*tracer) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,request,name,start_ns,end_ns")
	n := 0
	for _, t := range tracers {
		shift := int64(t.epoch.Sub(epoch))
		for i, s := range t.spans {
			parent := int64(-1)
			if s.parent >= 0 {
				parent = int64(n) + int64(s.parent)
			}
			fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", n+i, parent, s.req, s.name, s.start+shift, s.end+shift)
		}
		n += len(t.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return n, f.Close()
}
