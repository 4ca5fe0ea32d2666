package stats

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// memSampleInterval is how often a MemSampler reads HeapAlloc.
const memSampleInterval = 200 * time.Microsecond

// MemSampler polls the Go heap in a background goroutine and records the
// high-water mark of in-use bytes. It is the peak-heap probe behind
// `jxplain -stats`: Go exposes no per-phase RSS counter, and the
// process-lifetime VmHWM cannot be reset between phases, so a
// high-frequency HeapAlloc watermark is the honest per-phase proxy.
type MemSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	once sync.Once
	done sync.WaitGroup
}

// StartMemSampler garbage-collects to a clean baseline, then samples
// HeapAlloc every memSampleInterval until Stop.
func StartMemSampler() *MemSampler {
	runtime.GC()
	s := &MemSampler{stop: make(chan struct{})}
	s.sample()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(memSampleInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				s.sample()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *MemSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		old := s.peak.Load()
		if ms.HeapAlloc <= old || s.peak.CompareAndSwap(old, ms.HeapAlloc) {
			return
		}
	}
}

// Stop halts sampling, takes one final sample, and returns the observed
// peak of in-use heap bytes. Stop is idempotent.
func (s *MemSampler) Stop() uint64 {
	s.once.Do(func() {
		close(s.stop)
		s.done.Wait()
		s.sample()
	})
	return s.peak.Load()
}
