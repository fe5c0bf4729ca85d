// Package par provides the bounded, deterministic worker pool shared by the
// experiment drivers (internal/exp) and the portfolio racer
// (internal/portfolio).
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic raised by a worker function so it can be
// re-raised on the submitting goroutine instead of killing the process from
// inside a pool worker (where no caller frame could recover it). Index is
// the fn argument that panicked, Value the original panic value and Stack
// the worker's stack at the panic site.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker panic on index %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// For runs fn(0) … fn(n-1) on a bounded pool of workers and blocks until
// every call returns. Results stay deterministic because each index owns its
// own output slot in the caller's slices; only the wall-clock interleaving
// varies with the worker count. workers <= 0 means one worker per available
// CPU, workers == 1 runs inline with no goroutines.
//
// Every index runs even when some fail; the returned error is the one from
// the lowest failing index, so error reporting is also independent of the
// schedule.
//
// A panic inside fn does not crash the pool: the worker recovers it, the
// remaining indices still run, and after every call has finished the panic
// is re-raised on the submitting goroutine as a *PanicError (lowest index
// wins; panics take precedence over returned errors). On the inline
// workers <= 1 path panics propagate to the submitter directly, untouched.
func For(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var firstErr error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		firstIdx = n
		firstPan *PanicError
		wg       sync.WaitGroup
	)
	call := func(i int) (err error) {
		defer func() {
			if v := recover(); v != nil {
				pe := &PanicError{Index: i, Value: v, Stack: debug.Stack()}
				mu.Lock()
				if firstPan == nil || i < firstPan.Index {
					firstPan = pe
				}
				mu.Unlock()
			}
		}()
		return fn(i)
	}
	next.Store(-1)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := call(i); err != nil {
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if firstPan != nil {
		panic(firstPan)
	}
	return firstErr
}
