package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"

	"nasd/internal/telemetry"
)

// minTailSamples is how many samples must lie beyond a percentile for
// it to be reported: a p99 needs at least 1000 samples.
const minTailSamples = 10

// latencies collects per-operation latencies in nanoseconds. It is safe
// for concurrent use.
type latencies struct {
	mu sync.Mutex
	ns []int64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ns = append(l.ns, int64(d))
	l.mu.Unlock()
}

// sorted returns a sorted copy of the samples.
func (l *latencies) sorted() []int64 {
	l.mu.Lock()
	out := slices.Clone(l.ns)
	l.mu.Unlock()
	slices.Sort(out)
	return out
}

// quantile returns the nearest-rank q-quantile of sorted samples.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = max(0, min(i, len(sorted)-1))
	return sorted[i]
}

// tailOK reports whether n samples leave minTailSamples beyond the
// q-quantile.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= minTailSamples-1e-9
}

// p99ms returns the p99 of sorted in milliseconds, or 0 when too few
// samples lie beyond it.
func p99ms(sorted []int64) float64 {
	if !tailOK(len(sorted), 0.99) {
		return 0
	}
	return ms(quantile(sorted, 0.99))
}

// median returns the median of xs (which it sorts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// heapSampler records the peak of the Go heap in use (the
// runtime.MemStats.HeapInuse quantity) while it runs. It reads
// runtime/metrics, which does not stop the world, so sampling does not
// add pauses to the latencies it runs beside.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

var heapInuseMetrics = []string{
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/heap/unused:bytes",
}

func heapInuse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var sum uint64
	for _, m := range s {
		if m.Value.Kind() == metrics.KindUint64 {
			sum += m.Value.Uint64()
		}
	}
	return sum
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := make([]metrics.Sample, len(heapInuseMetrics))
	for i, name := range heapInuseMetrics {
		s[i].Name = name
	}
	h.peak = heapInuse(s)
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.peak = max(h.peak, heapInuse(s))
				return
			case <-t.C:
				h.peak = max(h.peak, heapInuse(s))
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// window brackets a timed window: registry snapshots and Go runtime
// counters at both ends, for per-layer deltas.
type window struct {
	start, end   time.Time
	srv0, srv1   telemetry.Snapshot
	cli0, cli1   telemetry.Snapshot
	mem0, mem1   runtime.MemStats
	srvReg       *telemetry.Registry
	cliReg       *telemetry.Registry
	heap         *heapSampler
	heapPeakByte uint64
	cpu0, cpu1   time.Duration // process CPU time, user plus system
}

// cpuTime returns the process's CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// openWindow opens a timed window. It collects the heap first, so the
// window's heap peak does not carry set-up garbage.
func openWindow(srv, cli *telemetry.Registry) *window {
	w := &window{srvReg: srv, cliReg: cli}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	w.srv0 = srv.Snapshot()
	w.cli0 = cli.Snapshot()
	w.heap = startHeapSampler(10 * time.Millisecond)
	w.cpu0 = cpuTime()
	w.start = time.Now()
	return w
}

func (w *window) close() {
	w.end = time.Now()
	w.cpu1 = cpuTime()
	w.heapPeakByte = w.heap.Stop()
	w.srv1 = w.srvReg.Snapshot()
	w.cli1 = w.cliReg.Snapshot()
	runtime.ReadMemStats(&w.mem1)
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// snapVal reads a counter or gauge (pull-style Func metrics land in
// gauges) from a snapshot.
func snapVal(s telemetry.Snapshot, name string) float64 {
	if v, ok := s.Counters[name]; ok {
		return float64(v)
	}
	return float64(s.Gauges[name])
}

// srv returns the change of a server-side metric across the window.
func (w *window) srv(name string) float64 { return snapVal(w.srv1, name) - snapVal(w.srv0, name) }

// cli returns the change of a client-side metric across the window.
func (w *window) cli(name string) float64 { return snapVal(w.cli1, name) - snapVal(w.cli0, name) }

// srvHist returns the server histogram name restricted to the window.
func (w *window) srvHist(name string) telemetry.HistogramSnapshot {
	a, b := w.srv0.Histograms[name], w.srv1.Histograms[name]
	out := telemetry.HistogramSnapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Max: b.Max}
	out.Buckets = slices.Clone(b.Buckets)
	for i := range a.Buckets {
		out.Buckets[i] -= a.Buckets[i]
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
