package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile. A tail with fewer samples behind it is one or two
// unlucky operations, not a property of the system.
const minBeyond = 10

// rankIndex is the nearest-rank index of percentile p (0 < p <= 100)
// in n ascending samples: the smallest index whose rank covers p% of
// the samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// beyond reports how many of n samples lie above percentile p.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rankIndex(n, p)
}

// minSamplesForTail is the smallest sample count at which percentile p
// has at least minBeyond samples above it.
func minSamplesForTail(p float64) int {
	n := 1
	for beyond(n, p) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank percentile p of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(len(sorted), p)]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (nearest rank), NaN when empty.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cpuTime is the process's user plus system CPU time so far, from
// getrusage: every thread the process ran, the runtime's included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// meter brackets one timed phase: wall time, process CPU time, heap
// allocations and the garbage collector's share of the CPU time.
// Output checks run inside the phase between pause and resume, so they
// count toward none of these.
type meter struct {
	wall0 time.Time
	cpu0  time.Duration
	rt0   rtSample

	Wall, CPU  time.Duration
	Allocs     uint64
	gcCPU      float64 // seconds
	GCCPUShare float64
}

// rtSample is the subset of runtime/metrics a phase is judged by.
type rtSample struct{ allocs, gcCPU float64 }

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocs: val(0), gcCPU: val(1)}
}

func startMeter() *meter {
	m := &meter{}
	m.resume()
	return m
}

func (m *meter) resume() {
	m.wall0, m.cpu0, m.rt0 = time.Now(), cpuTime(), readRuntime()
}

func (m *meter) pause() {
	m.Wall += time.Since(m.wall0)
	m.CPU += cpuTime() - m.cpu0
	rt := readRuntime()
	m.Allocs += uint64(rt.allocs - m.rt0.allocs)
	m.gcCPU += rt.gcCPU - m.rt0.gcCPU
}

// stop ends the phase.
func (m *meter) stop() {
	m.pause()
	if m.CPU > 0 {
		m.GCCPUShare = m.gcCPU / m.CPU.Seconds()
	}
}

// liveHeapMB forces a collection and returns the live heap. Callers
// keep the workload's state reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
