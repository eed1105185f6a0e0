package main

import (
	"fmt"
	"strings"
	"time"

	"cliffhanger/internal/store"
	"cliffhanger/internal/trace"
	"cliffhanger/internal/workload"
)

// tenantSpec is one daemon tenant and its reservation.
type tenantSpec struct {
	name string
	mb   int64
}

// workloadDef is one traffic mix: the request stream, the daemon it runs
// against and how the generator offers it.
type workloadDef struct {
	name string

	// spec and opts select the request stream (workload.Open); the run's
	// seed is filled in by the caller. opts.Requests is the fixed request
	// budget of one trial.
	spec string
	opts workload.Options

	mode    store.AllocationMode
	arbiter time.Duration // daemon -arbiter-interval; memshare only
	tenants []tenantSpec

	conns int
	depth int     // GETs per pipelined round trip
	rate  float64 // open-loop requests/s; 0 runs a closed loop

	// preloadKeys > 0 stores zipf keys [0, preloadKeys) before timing.
	preloadKeys int
}

// multiApp reports whether requests address per-app tenants (app<N>) rather
// than the single default tenant.
func (w *workloadDef) multiApp() bool { return len(w.tenants) > 1 }

// daemonArgs are the cliffhangerd flags for this workload (the address is
// added at launch).
func (w *workloadDef) daemonArgs() []string {
	parts := make([]string, len(w.tenants))
	for i, t := range w.tenants {
		parts[i] = fmt.Sprintf("%s:%d", t.name, t.mb)
	}
	args := []string{"-tenants", strings.Join(parts, ","), "-mode", w.mode.String()}
	if w.mode == store.AllocMemshare {
		args = append(args, "-arbiter-interval", w.arbiter.String())
	}
	return args
}

// apps is the application layout the simulator replays the stream against,
// with every app's memory set to its daemon tenant's reservation.
func (w *workloadDef) apps() ([]trace.AppSpec, error) {
	wl, err := workload.Open(w.spec, w.opts)
	if err != nil {
		return nil, err
	}
	defer wl.Close()
	mb := make(map[string]int64, len(w.tenants))
	for _, t := range w.tenants {
		mb[t.name] = t.mb
	}
	apps := make([]trace.AppSpec, len(wl.Apps))
	for i, a := range wl.Apps {
		a.MemoryMB = mb[w.tenantFor(a.ID)]
		apps[i] = a
	}
	return apps, nil
}

// preloadRequests are the SETs that fill the cache before timing: every key
// of the zipf key space once, at the stream's value size.
func (w *workloadDef) preloadRequests() []trace.Request {
	reqs := make([]trace.Request, w.preloadKeys)
	for k := range reqs {
		reqs[k] = trace.Request{Op: trace.OpSet, App: 1, Key: workload.ZipfKey(k), Size: int64(w.opts.ValueSize)}
	}
	return reqs
}

// tenantFor maps a request's application id onto its daemon tenant.
func (w *workloadDef) tenantFor(app int) string {
	if w.multiApp() {
		return workload.TenantName(app)
	}
	return w.tenants[0].name
}

// memcachierScale is the trace scale of the BENCH_hitrate.json head-to-head.
const memcachierScale = 0.25

func workloads() ([]*workloadDef, error) {
	mc, err := workload.Open("memcachier", workload.Options{Scale: memcachierScale})
	if err != nil {
		return nil, err
	}
	defer mc.Close()
	// Every app gets an equal split of the trace's total memory, the
	// naively provisioned cluster the memshare arbiter is meant to rescue.
	var totalMB int64
	for _, a := range mc.Apps {
		totalMB += a.MemoryMB
	}
	equalMB := max(1, totalMB/int64(len(mc.Apps)))
	var mcTenants []tenantSpec
	for _, a := range mc.Apps {
		mcTenants = append(mcTenants, tenantSpec{workload.TenantName(a.ID), equalMB})
	}
	single := []tenantSpec{{"default", 64}}

	return []*workloadDef{
		{
			// The paper's own workload: per-class hill climbing, the
			// arbiter and page migration do most of their work here.
			name: "memcachier-open",
			spec: "memcachier",
			opts: workload.Options{Scale: memcachierScale, Requests: 60000},
			mode: store.AllocMemshare,
			// The daemon's default tick. At the fixed rate every tick lands
			// on the same request position run after run, so the hit rate
			// repeats; shorter ticks see too few shadow hits to ever move.
			arbiter: time.Second,
			tenants: mcTenants,
			conns:   1,
			depth:   1,
			// About half of what one connection sustains closed-loop on a
			// 2-vCPU Xeon guest, so the schedule is kept with room to spare.
			rate: 7500,
		},
		{
			// The read path: parse, batch/flush, store probe with epoch pin
			// and zero-copy writes. Nothing is resized, so migration and
			// the arbiter stay idle.
			name: "zipf-get-pipelined",
			spec: "zipf",
			// The 100k keys (~26 MB) fit the 64 MB tenant by bytes; the hit
			// rate below 1 is a finding about class leasing, not a tuning
			// knob, so the key space stays.
			opts:        workload.Options{Keys: 100000, ZipfS: 0.99, ValueSize: 256, GetFraction: 0.99, Requests: 1000000},
			mode:        store.AllocCliffhanger,
			tenants:     single,
			conns:       2,
			depth:       64,
			preloadKeys: 100000,
		},
		{
			// The write side: Table 7's 50/50 GET:SET row with heavy-tailed
			// sizes over a working set larger than the tenant forces
			// cross-class re-sets, evictions and arena reclaim.
			name:    "etc-write-heavy",
			spec:    "facebook",
			opts:    workload.Options{Keys: 1 << 18, GetFraction: 0.5, Requests: 200000},
			mode:    store.AllocCliffhanger,
			tenants: single,
			conns:   2,
			depth:   1,
		},
	}, nil
}
