package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes is the process's resident set size now, from /proc; 0 where
// that is unavailable.
func rssBytes() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// Runtime metrics read around a phase.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// peakSampler polls resident memory and live heap while a phase runs,
// keeping the maxima.
type peakSampler struct {
	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	rss      uint64
	heapLive uint64
}

func startSampler(every time.Duration) *peakSampler {
	p := &peakSampler{stop: make(chan struct{}), done: make(chan struct{})}
	p.sample()
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.sample()
			}
		}
	}()
	return p
}

func (p *peakSampler) sample() {
	rss := rssBytes()
	heap := uint64(readRuntime(mHeapObjects)[0])
	p.mu.Lock()
	p.rss = max(p.rss, rss)
	p.heapLive = max(p.heapLive, heap)
	p.mu.Unlock()
}

// peaks returns the maxima sampled so far.
func (p *peakSampler) peaks() (rss, heapLive uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rss, p.heapLive
}

// finish stops the sampler, takes a last sample and returns the peaks.
func (p *peakSampler) finish() (rss, heapLive uint64) {
	close(p.stop)
	<-p.done
	p.sample()
	return p.peaks()
}

// allocTotals are the runtime's cumulative allocation counters.
func allocTotals() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}
