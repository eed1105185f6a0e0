package main

import (
	"slices"
	"time"
)

// samples records every latency of one kind exactly, in nanoseconds.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, int64(d)) }

// quantiles sorts the samples and returns the nearest-rank value at each
// quantile q in [0, 1], in microseconds.
func (s samples) quantiles(qs ...float64) []float64 {
	slices.Sort(s)
	out := make([]float64, len(qs))
	if len(s) == 0 {
		return out
	}
	for i, q := range qs {
		rank := int(q*float64(len(s))+0.999999999) - 1
		out[i] = float64(s[min(max(rank, 0), len(s)-1)]) / 1e3
	}
	return out
}

// tailQuantile is the highest quantile with at least ten samples beyond it:
// the deepest tail n samples can report.
func tailQuantile(n int) float64 {
	if n <= 10 {
		return 0
	}
	return 1 - 10/float64(n)
}

// span is one timed call into a layer. Parent indexes the tracer's spans (-1
// for none); req is the request's position in the workload stream (-1 when
// the span covers no single request).
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	req        int64
}

// tracer keeps spans in memory until the run writes them out. It belongs to
// one goroutine; concurrent recorders each own a tracer sharing one epoch.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.epoch)), parent: parent, req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) { t.spans[id].end = int64(time.Since(t.epoch)) }

// record adds a finished span timed by the caller.
func (t *tracer) record(name string, parent int32, req int64, start, end time.Time) {
	t.spans = append(t.spans, span{name: name, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)), parent: parent, req: req})
}
