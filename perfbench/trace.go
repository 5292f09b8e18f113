package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one traced call into a layer: its name, its interval relative
// to the tracer's start, the span that caused it (-1 for none), and the
// operation (cell or request) it belongs to.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (tr *tracer) begin(name string, op, parent int) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Op: op, Parent: parent, StartNs: now, EndNs: -1})
	return len(tr.spans) - 1
}

// end closes a span and returns its duration.
func (tr *tracer) end(id int) time.Duration {
	if tr == nil {
		return 0
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].EndNs = now
	return time.Duration(now - tr.spans[id].StartNs)
}

// totals sums span durations by name, in milliseconds.
func (tr *tracer) totals() map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := map[string]float64{}
	for _, s := range tr.spans {
		out[s.Name] += float64(s.EndNs-s.StartNs) / 1e6
	}
	return out
}

// heapAllocs is the process's cumulative count of heap-allocated objects.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime returns user+system CPU time of the process (who =
// RUSAGE_SELF) or of the calling thread (rusageThread).
func cpuTime(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// quantile returns the q-quantile (nearest rank) of sorted xs.
func quantile[T float32 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// median sorts a copy of xs and returns its median (the mean of the two
// middle values for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}
