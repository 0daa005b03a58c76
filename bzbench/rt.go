package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// rtSample is a reading of the Go runtime's cumulative counters.
type rtSample struct {
	gcCycles   uint64
	gcCPU      float64 // seconds of CPU the GC used
	totalCPU   float64 // seconds of CPU available to the process's Go code
	allocBytes uint64
	allocObjs  uint64
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRT() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return rtSample{
		gcCycles:   ms[0].Value.Uint64(),
		gcCPU:      ms[1].Value.Float64(),
		totalCPU:   ms[2].Value.Float64(),
		allocBytes: ms[3].Value.Uint64(),
		allocObjs:  ms[4].Value.Uint64(),
	}
}

// rtDelta is what the runtime did between two samples.
type rtDelta struct {
	gcCycles   uint64
	gcCPUFrac  float64
	allocBytes uint64
	allocObjs  uint64
}

func (a rtSample) to(b rtSample) rtDelta {
	d := rtDelta{
		gcCycles:   b.gcCycles - a.gcCycles,
		allocBytes: b.allocBytes - a.allocBytes,
		allocObjs:  b.allocObjs - a.allocObjs,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

func (d *rtDelta) add(o rtDelta) {
	d.gcCycles += o.gcCycles
	d.allocBytes += o.allocBytes
	d.allocObjs += o.allocObjs
}

// heapSampleEvery is how often heapWatch reads the heap size.
const heapSampleEvery = time.Millisecond

// heapWatch keeps the peak of the live heap — the bytes the last completed
// GC marked reachable — sampled in the background. Unlike the heap's
// momentary size it does not swing with how much garbage a GC cycle
// happens to find. Stop ends the sampler and waits for it.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapWatch() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go w.loop()
	return w
}

func (w *heapWatch) loop() {
	defer close(w.done)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(heapSampleEvery)
	defer tick.Stop()
	for {
		metrics.Read(s)
		w.mu.Lock()
		w.peak = max(w.peak, s[0].Value.Uint64())
		w.mu.Unlock()
		select {
		case <-w.stop:
			return
		case <-tick.C:
		}
	}
}

// Stop ends sampling and returns the peak in bytes.
func (w *heapWatch) Stop() uint64 {
	close(w.stop)
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.peak
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
