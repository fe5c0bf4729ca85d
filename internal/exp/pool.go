package exp

import "locmps/internal/par"

// parallelFor fans cells of an experiment over the shared bounded worker
// pool (internal/par). Each index owns its own output slot, so figures
// are bit-identical for any worker count; errors report by lowest index.
func parallelFor(workers, n int, fn func(i int) error) error {
	return par.For(workers, n, fn)
}
