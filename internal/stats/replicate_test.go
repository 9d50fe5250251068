package stats

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndicesOnce(t *testing.T) {
	for _, parallel := range []int{1, 2, 7, 0} {
		const n = 100
		var hits [n]int32
		ForEachWorker(n, parallel, func(_, i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("parallel=%d: index %d visited %d times", parallel, i, h)
			}
		}
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	if errs := ForEachWorker(0, 4, func(_, i int) { panic("job called for n=0") }); errs != nil {
		t.Fatalf("n=0: %v", errs)
	}
	calls := 0
	ForEachWorker(1, 8, func(w, i int) {
		if w != 0 || i != 0 {
			t.Errorf("n=1: job(%d, %d), want job(0, 0)", w, i)
		}
		calls++
	})
	if calls != 1 {
		t.Fatalf("n=1: job called %d times", calls)
	}
}

// TestReplicateSeedOrder pins the sweep addressing: fn sees every
// (cell, seed) pair exactly once, seeds 0..reps-1 per cell, on a worker
// index below Workers(parallel).
func TestReplicateSeedOrder(t *testing.T) {
	const cells, reps, parallel = 3, 8, 3
	var seen [cells * reps]atomic.Int32
	var badWorker atomic.Bool
	ReplicateGridWorker(cells, reps, parallel, func(w, cell int, seed uint64) map[string]float64 {
		if w < 0 || w >= parallel {
			badWorker.Store(true)
		}
		seen[cell*reps+int(seed)].Add(1)
		return nil
	})
	if badWorker.Load() {
		t.Fatal("job ran on a worker index outside [0, parallel)")
	}
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Fatalf("cell %d seed %d ran %d times, want 1", i/reps, i%reps, got)
		}
	}
}

func TestReplicateGridDeterministicAcrossParallelism(t *testing.T) {
	fn := func(_, cell int, seed uint64) map[string]float64 {
		return map[string]float64{
			"v": float64(cell)*100 + math.Cos(float64(seed)),
			"w": float64(seed) / 7,
		}
	}
	want, _ := ReplicateGridWorker(5, 4, 1, fn)
	for _, parallel := range []int{4, 0} {
		got, _ := ReplicateGridWorker(5, 4, parallel, fn)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%d: grid estimates differ", parallel)
		}
	}
	// Welford accumulation in seed order: cell c sees seeds 0..3 exactly.
	for c, est := range want {
		var r Running
		for seed := 0; seed < 4; seed++ {
			r.Add(float64(c)*100 + math.Cos(float64(seed)))
		}
		if est["v"] != r.Estimate() {
			t.Fatalf("cell %d merged out of seed order: %v vs %v", c, est["v"], r.Estimate())
		}
	}
}

// TestReplicateGridSurvivesPanickingReplication pins the hardened-pool
// contract: one replication panicking on both attempts must not kill the
// sweep — the other 99 replications merge normally and the failure comes
// back as one structured RepError naming the exact cell and seed for a
// single-threaded repro.
func TestReplicateGridSurvivesPanickingReplication(t *testing.T) {
	const cells, reps = 10, 10
	for _, parallel := range []int{1, 4, 0} {
		est, errs := ReplicateGridWorker(cells, reps, parallel, func(_, cell int, seed uint64) map[string]float64 {
			if cell == 7 && seed == 3 {
				panic("protocol stub exploded")
			}
			return map[string]float64{"v": 1}
		})
		if len(errs) != 1 {
			t.Fatalf("parallel=%d: got %d errors, want 1", parallel, len(errs))
		}
		e := errs[0]
		if e.Cell != 7 || e.Seed != 3 || e.Index != 73 || e.Attempts != 2 {
			t.Fatalf("parallel=%d: RepError = %+v, want cell=7 seed=3 index=73 attempts=2", parallel, e)
		}
		if e.Value != "protocol stub exploded" || len(e.Stack) == 0 {
			t.Fatalf("parallel=%d: RepError missing panic value or stack: %+v", parallel, e)
		}
		if e.Error() == "" {
			t.Fatal("RepError.Error() empty")
		}
		// The failed cell degrades to reps-1 merged runs; all others are whole.
		for c := 0; c < cells; c++ {
			wantN := reps
			if c == 7 {
				wantN = reps - 1
			}
			if got := est[c]["v"].N; got != wantN {
				t.Fatalf("parallel=%d: cell %d merged %d runs, want %d", parallel, c, got, wantN)
			}
		}
	}
}

// TestForEachRetriesTransientPanic pins the one-retry policy: a job that
// panics once and then succeeds is not reported as failed.
func TestForEachRetriesTransientPanic(t *testing.T) {
	var firstTry [4]atomic.Bool
	hits := [4]int32{}
	errs := ForEachWorker(4, 2, func(_, i int) {
		if i == 2 && !firstTry[i].Swap(true) {
			panic("transient")
		}
		atomic.AddInt32(&hits[i], 1)
	})
	if len(errs) != 0 {
		t.Fatalf("transient panic reported as failure: %v", errs)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d completed %d times, want 1", i, h)
		}
	}
}

// TestForEachReportsErrorsInIndexOrder pins the ordering contract under
// concurrency.
func TestForEachReportsErrorsInIndexOrder(t *testing.T) {
	errs := ForEachWorker(50, 8, func(_, i int) {
		if i%7 == 0 {
			panic(i)
		}
	})
	var want []int
	for i := 0; i < 50; i += 7 {
		want = append(want, i)
	}
	if len(errs) != len(want) {
		t.Fatalf("got %d errors, want %d", len(errs), len(want))
	}
	for k, e := range errs {
		if e.Index != want[k] {
			t.Fatalf("errs[%d].Index = %d, want %d", k, e.Index, want[k])
		}
		if e.Value != want[k] {
			t.Fatalf("errs[%d].Value = %v, want %d", k, e.Value, want[k])
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("Workers(3) != 3")
	}
	if Workers(0) < 1 || Workers(-1) < 1 {
		t.Error("Workers(<=0) must resolve to at least one worker")
	}
}
