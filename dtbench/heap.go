package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

const (
	// heapLiveMetric is the heap the last garbage collection found live:
	// what the program holds, without the garbage awaiting collection.
	heapLiveMetric = "/gc/heap/live:bytes"
	allocMetric    = "/gc/heap/allocs:bytes"
	heapSampleGap  = 5 * time.Millisecond
)

// readUint reads one uint64 runtime metric without stopping the world.
func readUint(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// allocatedBytes is the cumulative heap allocation of the process.
func allocatedBytes() uint64 { return readUint(allocMetric) }

// processCPU is the CPU time, user plus system, the process has used on all
// its threads.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak of the live heap while it runs.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: readUint(heapLiveMetric)}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(heapSampleGap)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.peak = max(h.peak, readUint(heapLiveMetric))
			}
		}
	}()
	return h
}

// stopMiB stops the sampler, waits for it and returns the peak in MiB.
func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	h.done.Wait()
	h.peak = max(h.peak, readUint(heapLiveMetric))
	return float64(h.peak) / (1 << 20)
}
