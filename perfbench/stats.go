package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty slice. xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// vmHWM reads the process's peak resident set size in MiB from
// /proc/self/status (Linux); 0 where unavailable.
func vmHWM() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// goCounters are the runtime counters the traced run differences across a
// span: cumulative heap allocation and GC CPU time.
type goCounters struct {
	allocBytes float64
	gcCPU      float64
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readCounters() goCounters {
	s := make([]metrics.Sample, len(counterSamples))
	copy(s, counterSamples)
	metrics.Read(s)
	var c goCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[1].Value.Float64()
	}
	return c
}

func (c goCounters) sub(o goCounters) goCounters {
	return goCounters{allocBytes: c.allocBytes - o.allocBytes, gcCPU: c.gcCPU - o.gcCPU}
}

// heapSampler polls the live heap every few milliseconds and keeps the
// peak; stop returns it in MiB.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				h.mu.Lock()
				h.peak = max(h.peak, s[0].Value.Uint64())
				h.mu.Unlock()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / (1 << 20)
}
