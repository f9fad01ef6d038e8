package main

import (
	"runtime"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, p := range []float64{50, 75, 90, 99, 99.9} {
		n := minSamplesForTail(p)
		if got := beyond(n, p); got < minBeyond {
			t.Errorf("p%g: %d samples leave %d beyond, want >= %d", p, n, got, minBeyond)
		}
		if got := beyond(n-1, p); got >= minBeyond {
			t.Errorf("p%g: %d samples already leave %d beyond; minimum should be smaller", p, n-1, got)
		}
	}
	// The published sizes: solve runs p75 over 45 solves, churn p90
	// over about 124 ticks, failover p75 over 60 cycles.
	cases := []struct {
		n      int
		p      float64
		beyond int
	}{{45, 75, 11}, {124, 90, 12}, {60, 75, 15}, {100, 90, 10}, {99, 90, 9}, {1100, 99, 11}}
	for _, c := range cases {
		if got := beyond(c.n, c.p); got != c.beyond {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}

func TestCPUTimeCountsBusyThreads(t *testing.T) {
	burn := func(d time.Duration) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}
	m := startMeter()
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() { burn(100 * time.Millisecond); done <- struct{}{} }()
	}
	<-done
	<-done
	m.stop()
	want := 100 * time.Millisecond * time.Duration(min(2, runtime.NumCPU()))
	if m.CPU < want*7/10 {
		t.Errorf("two busy goroutines for 100ms: CPU %v, want about %v", m.CPU, want)
	}
	if m.CPU > m.Wall*time.Duration(runtime.NumCPU())+20*time.Millisecond {
		t.Errorf("CPU %v exceeds wall %v times %d CPUs", m.CPU, m.Wall, runtime.NumCPU())
	}
}

func TestMeterPauseExcludesChecks(t *testing.T) {
	m := startMeter()
	m.pause()
	for end := time.Now().Add(80 * time.Millisecond); time.Now().Before(end); {
	}
	m.resume()
	m.stop()
	if m.Wall > 40*time.Millisecond || m.CPU > 40*time.Millisecond {
		t.Errorf("paused work was counted: wall %v, CPU %v", m.Wall, m.CPU)
	}
}
