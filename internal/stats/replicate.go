package stats

import (
	"fmt"
	"runtime"
)

// This file is the replication front end behind every figure: independent
// simulation runs (replications, and independent sweep points) are sharded
// across the worker pool of pool.go. Determinism is by construction — each
// job is addressed by its index, derives all randomness from its seed, and
// writes only its own result slot; merging then walks the slots in index
// order, so the output is byte-identical for any worker count.
//
// A replication that panics on both attempts is recorded as a structured
// RepError instead of taking down the sweep. The sweep completes with the
// surviving replications; the RepError carries the exact cell and seed
// needed to reproduce the crash in a single-threaded run.

// RepError describes one replication that panicked on both attempts. It
// carries everything needed for a single-threaded repro: the sweep cell, the
// seed, the recovered panic value and the stack of the final attempt.
type RepError struct {
	// Cell is the sweep point (always 0 for non-grid drivers).
	Cell int
	// Seed is the replication seed (equal to Index for non-grid drivers).
	Seed uint64
	// Index is the flat job index the driver dispatched.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the final panic.
	Stack []byte
	// Attempts is how many times the job was tried (2: initial + one retry).
	Attempts int
}

// Error implements error.
func (e *RepError) Error() string {
	return fmt.Sprintf("stats: replication cell=%d seed=%d panicked after %d attempts: %v",
		e.Cell, e.Seed, e.Attempts, e.Value)
}

// Workers resolves a parallelism request: values <= 0 select GOMAXPROCS
// (use all hardware threads), anything else is taken literally.
func Workers(parallel int) int {
	if parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallel
}

// ForEachWorker runs job(0..n-1) on up to Workers(parallel) goroutines and
// waits for all of them: RunPool with n independent, equal-priority items
// that push nothing, dequeued in index order. job additionally receives the
// index w of the worker goroutine executing it, 0 <= w < Workers(parallel).
// Jobs on the same w run strictly sequentially, which is what lets a job
// reuse per-worker state (scratch arenas, frame pools) without locking. The
// results must not depend on that state — each job stays addressed purely by
// its index i, and must confine its writes to per-index state.
//
// A job that panics is retried once and, failing again, reported in the
// returned slice (ordered by job index) instead of crashing the pool; its
// result slot is simply never written. A nil return means every job
// completed.
func ForEachWorker(n, parallel int, job func(w, i int)) []*RepError {
	initial := make([]Item, n)
	for i := range initial {
		initial[i] = Item{ID: i, Affinity: -1}
	}
	return RunPool(parallel, initial, func(w, i int) []Item {
		job(w, i)
		return nil
	})
}

// ReplicateGridWorker shards a whole sweep — cells independent experiment
// points, reps replications each — across one worker pool, so parallelism
// is not throttled by the replication count of a single point (Quick mode
// runs only 3 replications per point, far fewer than a modern machine has
// cores). fn(w, cell, seed) must be independent across all (cell, seed)
// pairs; w is the executing worker (see ForEachWorker), so a sweep can reuse
// one arena per worker across its runs. The result is one Estimate per
// metric name per cell, merged in seed order, and must not depend on the
// worker assignment.
//
// A replication that panicked twice is excluded from its cell's merge (the
// cell's Estimates simply average one fewer run) and reported in the error
// slice with its exact cell and seed, so the sweep of every other point
// completes and the crash stays reproducible single-threaded.
func ReplicateGridWorker(cells, reps, parallel int, fn func(w, cell int, seed uint64) map[string]float64) ([]map[string]Estimate, []*RepError) {
	results := make([]map[string]float64, cells*reps)
	errs := ForEachWorker(cells*reps, parallel, func(w, i int) {
		results[i] = fn(w, i/reps, uint64(i%reps))
	})
	for _, e := range errs {
		e.Cell = e.Index / reps
		e.Seed = uint64(e.Index % reps)
	}
	out := make([]map[string]Estimate, cells)
	for c := 0; c < cells; c++ {
		out[c] = mergeRuns(results[c*reps : (c+1)*reps])
	}
	return out, errs
}

// mergeRuns folds per-replication metric maps into Estimates, visiting the
// replications in slice (seed) order so the accumulation is deterministic.
// Nil entries (failed replications) are skipped: iterating a nil map yields
// nothing, so a lost run lowers every Estimate's N by one instead of
// poisoning the merge.
func mergeRuns(results []map[string]float64) map[string]Estimate {
	acc := make(map[string]*Running)
	for _, m := range results {
		for k, v := range m {
			if acc[k] == nil {
				acc[k] = &Running{}
			}
			acc[k].Add(v)
		}
	}
	out := make(map[string]Estimate, len(acc))
	for k, r := range acc {
		out[k] = r.Estimate()
	}
	return out
}
