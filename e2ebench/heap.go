package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// heapPeak samples the live heap every few milliseconds through
// runtime/metrics (no stop-the-world, unlike runtime.ReadMemStats): the
// heap of the whole process, node and load generator together. Live means
// marked by the last GC, so the figure is retained data (caches, in-flight
// searches), not garbage awaiting collection.
//
// The workload cuts its run into blocks of equal work (requests, streams)
// and the reported figure is the median of the blocks' peaks: one large
// search or one GC landing at the wrong moment moves a single block, not
// the result. Sampling stops after a fixed number of blocks, so a faster
// build, which fills the node's caches further in the same time, is not
// charged for it.
type heapPeak struct {
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	mu     sync.Mutex
	cur    uint64    // peak of the open block
	blocks []float64 // peaks of the closed blocks, MiB
	done   bool
}

const heapMetric = "/gc/heap/live:bytes"

// startHeapPeak starts sampling. Start it after the workload's set-up: it
// collects garbage first, so that the first block does not see what the
// set-up left behind (torn-down nodes, discarded inputs) as live.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.cur = max(h.cur, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// cut closes the open block. It is safe for concurrent use and a no-op on
// a nil or finished sampler.
func (h *heapPeak) cut() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.done {
		h.blocks = append(h.blocks, float64(h.cur)/(1<<20))
		h.cur = 0
	}
}

// discard drops the open block's peak without closing a block: the work
// before it (a warm-up) is left out of the figure.
func (h *heapPeak) discard() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cur = 0
}

// cutAt closes a block every `every` units of work and stops sampling
// after `blocks` blocks; done is the work completed so far.
func (h *heapPeak) cutAt(done, every, blocks int) {
	if h == nil || done%every != 0 {
		return
	}
	h.cut()
	if done == every*blocks {
		h.finish()
	}
}

// finish stops sampling (once; later calls are no-ops) and returns the
// median block peak in MiB. A run that closed no block reports the peak
// of the open one.
func (h *heapPeak) finish() float64 {
	h.once.Do(func() {
		close(h.stop)
		h.wg.Wait()
		h.mu.Lock()
		if len(h.blocks) == 0 {
			h.blocks = append(h.blocks, float64(h.cur)/(1<<20))
		}
		h.done = true
		h.mu.Unlock()
	})
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.blocks)
}
