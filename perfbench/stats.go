package main

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs must be non-empty.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the CPU time this process has used, both parties and
// the Go runtime included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler tracks the highest resident set size seen since its last
// reset, sampling /proc/self/statm every rssEvery. The benchmark resets
// it at the start of every request: the process-wide high-water mark
// (ru_maxrss) is set by whichever garbage-collection cycle happened to
// peak, and varies by a sixth between runs of mlp-b1-connect, while the
// median over requests of each request's peak repeats within 2%.
type rssSampler struct {
	peak atomic.Int64
	stop chan struct{}
	done chan struct{}
}

const rssEvery = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.reset()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

func (s *rssSampler) observe() {
	now := rssBytes()
	for {
		old := s.peak.Load()
		if now <= old || s.peak.CompareAndSwap(old, now) {
			return
		}
	}
}

// reset starts a new interval at the current resident size.
func (s *rssSampler) reset() { s.peak.Store(rssBytes()) }

// max returns the interval's highest sample, the current size included.
func (s *rssSampler) max() int64 {
	s.observe()
	return s.peak.Load()
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// rssBytes reads the current resident set size.
func rssBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}
