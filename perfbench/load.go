package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cliffhanger/internal/client"
	"cliffhanger/internal/protocol"
	"cliffhanger/internal/slab"
	"cliffhanger/internal/trace"
	"cliffhanger/internal/workload"
)

// tally is what one connection saw. Failures are transport errors and
// unexpected server errors; mismatches are GET hits whose bytes are not what
// the generator stored; rejected counts SETs refused because the item is
// larger than every slab class, which the daemon is right to refuse.
type tally struct {
	ops, gets, hits, sets, rejected, failed, mismatches int64

	getLat, setLat samples // per round trip; a pipelined batch is one
	// lag is how late the generator sent: past the due time in an open
	// loop, and the gap since the previous round trip in a closed loop.
	lag samples
}

func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.gets += o.gets
	t.hits += o.hits
	t.sets += o.sets
	t.rejected += o.rejected
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.getLat = append(t.getLat, o.getLat...)
	t.setLat = append(t.setLat, o.setLat...)
	t.lag = append(t.lag, o.lag...)
}

// wireConn replays requests over one client connection with read-through
// fill: every GET miss is followed by a SET of the missed key.
type wireConn struct {
	w       *workloadDef
	c       *client.Client
	curApp  int
	keys    []string
	hit     []bool
	onValue client.IndexedValueFunc
	tally

	// tr, when set, records one span per round trip named prefix.<verb>.
	tr       *tracer
	prefix   string
	lastDone time.Time
	paced    bool // open loop: lag is taken against the schedule instead
}

func newWireConn(w *workloadDef, c *client.Client, tr *tracer, prefix string) *wireConn {
	wc := &wireConn{w: w, c: c, tr: tr, prefix: prefix}
	wc.onValue = func(i int, _ []byte, _ uint32, _ uint64, v []byte) {
		wc.hit[i] = true
		if !valueOK(wc.keys[i], v) {
			wc.mismatches++
		}
	}
	return wc
}

var geometry = slab.DefaultGeometry()

func (wc *wireConn) span(verb string, parent int32, req int64, start, end time.Time) int32 {
	if wc.tr == nil {
		return -1
	}
	wc.tr.record(wc.prefix+"."+verb, parent, req, start, end)
	return int32(len(wc.tr.spans) - 1)
}

// selectApp switches the connection to app's tenant when the workload maps
// apps onto tenants.
func (wc *wireConn) selectApp(app int, req int64) {
	if !wc.w.multiApp() || app == wc.curApp {
		return
	}
	start := time.Now()
	err := wc.c.SelectTenant(workload.TenantName(app))
	wc.span("tenant", -1, req, start, time.Now())
	if err != nil {
		wc.failed++
		return
	}
	wc.curApp = app
}

// startRTT returns the time a round trip starts. In a closed loop it also
// records the generator's gap since the previous round trip as lag.
func (wc *wireConn) startRTT() time.Time {
	now := time.Now()
	if !wc.paced && !wc.lastDone.IsZero() {
		wc.lag.add(now.Sub(wc.lastDone))
	}
	return now
}

// get sends one pipelined GET of batch (requests req, req+1, ...) and fills
// the misses.
func (wc *wireConn) get(batch []trace.Request, req int64) {
	wc.keys = wc.keys[:0]
	wc.hit = wc.hit[:0]
	for _, r := range batch {
		wc.keys = append(wc.keys, r.Key)
		wc.hit = append(wc.hit, false)
	}
	start := wc.startRTT()
	err := wc.c.PipelineGetFunc(wc.keys, wc.onValue)
	end := time.Now()
	wc.lastDone = end
	wc.getLat.add(end.Sub(start))
	parent := wc.span("get", -1, req, start, end)
	n := int64(len(batch))
	wc.ops += n
	wc.gets += n
	if err != nil {
		wc.failed += n
		return
	}
	for i, r := range batch {
		if wc.hit[i] {
			wc.hits++
			continue
		}
		wc.set(r, req+int64(i), parent)
	}
}

func (wc *wireConn) set(r trace.Request, req int64, parent int32) {
	v := requestValue(r)
	start := wc.startRTT()
	err := wc.c.SetWithOptions(r.Key, v, 0, 0)
	end := time.Now()
	wc.lastDone = end
	wc.setLat.add(end.Sub(start))
	wc.span("set", parent, req, start, end)
	wc.ops++
	wc.sets++
	if err != nil {
		if _, fits := geometry.ClassFor(int64(len(r.Key) + len(v))); !fits && errors.Is(err, protocol.ErrRemote) {
			wc.rejected++
			return
		}
		wc.failed++
	}
}

func (wc *wireConn) del(r trace.Request, req int64) {
	start := wc.startRTT()
	_, err := wc.c.Delete(r.Key)
	wc.lastDone = time.Now()
	wc.span("delete", -1, req, start, wc.lastDone)
	wc.ops++
	if err != nil {
		wc.failed++
	}
}

// runChunk replays reqs (starting at stream position base) closed-loop:
// runs of same-app GETs go out pipelined up to the workload's depth.
func (wc *wireConn) runChunk(reqs []trace.Request, base int) {
	for i := 0; i < len(reqs); {
		r := reqs[i]
		req := int64(base + i)
		wc.selectApp(r.App, req)
		switch r.Op {
		case trace.OpGet:
			j := i + 1
			for j < len(reqs) && j-i < wc.w.depth && reqs[j].Op == trace.OpGet && reqs[j].App == r.App {
				j++
			}
			wc.get(reqs[i:j], req)
			i = j
			continue
		case trace.OpSet:
			wc.set(r, req, -1)
		case trace.OpDelete:
			wc.del(r, req)
		}
		i++
	}
}

// runClosed replays reqs over conns, each keeping one round trip in flight,
// and returns the elapsed time.
func runClosed(reqs []trace.Request, conns []*wireConn, depth int) time.Duration {
	chunk := max(depth, 16)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, wc := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= len(reqs) {
					return
				}
				wc.runChunk(reqs[lo:min(lo+chunk, len(reqs))], lo)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openResult is how well an open-loop run kept its schedule.
type openResult struct {
	elapsed  time.Duration
	achieved float64 // requests/s from the first due time to the last completion
	valid    bool
}

// runOpen replays reqs over one connection at rate requests/s, one request
// at a time. Round trips are timed from their send; how late each request
// went out against its schedule is recorded as lag. The run is invalid when
// the generator achieved less than 97% of the rate, or when the median lag
// of the last tenth of requests exceeds both 1 ms and ten times that of the
// first tenth: a backlog that kept growing.
func runOpen(reqs []trace.Request, wc *wireConn, rate float64) openResult {
	first := time.Now().Add(time.Millisecond)
	pace := workload.NewPacer(first, rate)
	wc.paced = true
	for i, r := range reqs {
		due := pace.Next(1)
		waitUntil(due)
		wc.lag.add(time.Since(due))
		req := int64(i)
		wc.selectApp(r.App, req)
		switch r.Op {
		case trace.OpGet:
			wc.get(reqs[i:i+1], req)
		case trace.OpSet:
			wc.set(r, req, -1)
		case trace.OpDelete:
			wc.del(r, req)
		}
	}
	elapsed := time.Since(first)
	res := openResult{elapsed: elapsed, achieved: float64(len(reqs)) / elapsed.Seconds()}
	// Lag samples are still in send order here; quantiles are in µs.
	n := len(wc.lag)
	early := append(samples(nil), wc.lag[:n/10]...).quantiles(0.5)[0]
	late := append(samples(nil), wc.lag[n-n/10:]...).quantiles(0.5)[0]
	res.valid = res.achieved >= 0.97*rate && late <= max(1000, 10*early)
	return res
}

// waitUntil sleeps through long gaps and spins through short ones: timer
// wake-ups are about a millisecond coarse, and a vCPU left idle between
// requests wakes late.
func waitUntil(t time.Time) {
	if d := time.Until(t); d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(t) {
	}
}
