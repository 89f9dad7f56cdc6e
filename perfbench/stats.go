package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// unionLength is the total length of the union of the [start, end)
// intervals of the given spans.
func unionLength(spans []*span) time.Duration {
	iv := make([][2]time.Duration, len(spans))
	for i, s := range spans {
		iv[i] = [2]time.Duration{s.Start, s.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curStart, curEnd time.Duration
	open := false
	for _, x := range iv {
		if !open || x[0] > curEnd {
			if open {
				total += curEnd - curStart
			}
			curStart, curEnd, open = x[0], x[1], true
			continue
		}
		if x[1] > curEnd {
			curEnd = x[1]
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// allocCounter sums the heap allocations made between start and stop
// calls, leaving out whatever happens in between stop and the next start.
type allocCounter struct {
	mallocs, bytes uint64
	at             runtime.MemStats
}

func (a *allocCounter) start() { runtime.ReadMemStats(&a.at) }

func (a *allocCounter) stop() {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	a.mallocs += now.Mallocs - a.at.Mallocs
	a.bytes += now.TotalAlloc - a.at.TotalAlloc
}

// cpuTime is the CPU time the process has used, user and system, over all
// its threads.  The kernel leaves out the time a hypervisor gave the
// machine's CPUs to other guests, which a wall clock counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch measures wall and process CPU time from its last start.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func (s *stopwatch) start() { s.wall, s.cpu = time.Now(), cpuTime() }

func (s *stopwatch) wallSince() time.Duration { return time.Since(s.wall) }

// lap returns the wall and CPU time since the last start.
func (s *stopwatch) lap() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

// addTo adds the wall and CPU time since the last start to the totals.
func (s *stopwatch) addTo(wall, cpu *time.Duration) {
	w, c := s.lap()
	*wall += w
	*cpu += c
}
