package stats

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunPoolRunsEveryItemOnce pins the basic contract on a dynamic
// workload: a chain of pushes where each item readies the next, across
// several workers, with every item executing exactly once.
func TestRunPoolRunsEveryItemOnce(t *testing.T) {
	const n = 200
	var ran [n]atomic.Int32
	errs := RunPool(4, []Item{{ID: 0}}, func(_, id int) []Item {
		ran[id].Add(1)
		if id+1 < n {
			return []Item{{ID: id + 1}}
		}
		return nil
	})
	if errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("item %d ran %d times, want 1", i, got)
		}
	}
}

// TestRunPoolDependencyOrder runs a diamond dependency (0 -> {1,2} -> 3,
// readiness managed by the caller exactly like the sharded scheduler does)
// on many workers and asserts no item ran before everything it depends on.
func TestRunPoolDependencyOrder(t *testing.T) {
	deps := map[int][]int{1: {0}, 2: {0}, 3: {1, 2}}
	children := map[int][]int{0: {1, 2}, 1: {3}, 2: {3}}
	var mu sync.Mutex
	done := make(map[int]bool)
	pendingDeps := map[int]int{1: 1, 2: 1, 3: 2}
	errs := RunPool(8, []Item{{ID: 0}}, func(_, id int) []Item {
		mu.Lock()
		defer mu.Unlock()
		for _, d := range deps[id] {
			if !done[d] {
				t.Errorf("item %d ran before its dependency %d", id, d)
			}
		}
		done[id] = true
		var ready []Item
		for _, c := range children[id] {
			pendingDeps[c]--
			if pendingDeps[c] == 0 {
				ready = append(ready, Item{ID: c})
			}
		}
		return ready
	})
	if errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if len(done) != 4 {
		t.Fatalf("ran %d items, want 4", len(done))
	}
}

// TestRunPoolPriorityOrder pins the dequeue policy on one worker: ready
// items run largest-priority first, ID ascending on ties.
func TestRunPoolPriorityOrder(t *testing.T) {
	initial := []Item{
		{ID: 0, Priority: 5, Affinity: -1},
		{ID: 1, Priority: 9, Affinity: -1},
		{ID: 2, Priority: 9, Affinity: -1},
		{ID: 3, Priority: 1, Affinity: -1},
	}
	var order []int
	if errs := RunPool(1, initial, func(_, id int) []Item {
		order = append(order, id)
		return nil
	}); errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	want := []int{1, 2, 0, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// TestRunPoolAffinityPreference pins that a worker drains the items
// preferring it before touching higher-priority items bound elsewhere.
func TestRunPoolAffinityPreference(t *testing.T) {
	initial := []Item{
		{ID: 0, Priority: 100, Affinity: 1}, // prefers a worker that does not exist
		{ID: 1, Priority: 1, Affinity: 0},
	}
	var order []int
	if errs := RunPool(1, initial, func(_, id int) []Item {
		order = append(order, id)
		return nil
	}); errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if order[0] != 1 {
		t.Fatalf("execution order %v, want the affinity-0 item first", order)
	}
}

// TestRunPoolRetriesOnce pins the retry: one panic retries on the same
// worker and succeeds silently.
func TestRunPoolRetriesOnce(t *testing.T) {
	var attempts atomic.Int32
	errs := RunPool(2, []Item{{ID: 7}}, func(_, id int) []Item {
		if attempts.Add(1) == 1 {
			panic("transient")
		}
		return nil
	})
	if errs != nil {
		t.Fatalf("single panic should be absorbed by the retry, got %v", errs)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("job attempted %d times, want 2", got)
	}
}

// TestRunPoolDoublePanicSkipsDependants pins the failure contract: a job
// that panics twice becomes a RepError and counts as completed with no
// pushes, so the item it would have readied never runs, while an
// independent item — and everything that item readies — still does.
func TestRunPoolDoublePanicSkipsDependants(t *testing.T) {
	for _, parallel := range []int{1, 4} {
		var mu sync.Mutex
		ran := map[int]int{}
		errs := RunPool(parallel, []Item{{ID: 3, Priority: 10, Affinity: -1}, {ID: 4, Affinity: -1}}, func(_, id int) []Item {
			mu.Lock()
			ran[id]++
			mu.Unlock()
			if id == 3 {
				panic("poisoned")
			}
			if id < 100 {
				return []Item{{ID: id + 100, Affinity: -1}}
			}
			return nil
		})
		if len(errs) != 1 {
			t.Fatalf("parallel=%d: got %d errors, want 1: %v", parallel, len(errs), errs)
		}
		e := errs[0]
		if e.Index != 3 || e.Attempts != 2 || e.Value != "poisoned" || len(e.Stack) == 0 {
			t.Fatalf("parallel=%d: RepError = %+v, want index 3, 2 attempts, value %q and a stack",
				parallel, e, "poisoned")
		}
		want := map[int]int{3: 2, 4: 1, 104: 1}
		if !reflect.DeepEqual(ran, want) {
			t.Fatalf("parallel=%d: run counts %v, want %v (103 must never run)", parallel, ran, want)
		}
	}
}

// TestRunPoolEmptyInitial pins the degenerate case.
func TestRunPoolEmptyInitial(t *testing.T) {
	if errs := RunPool(4, nil, func(_, id int) []Item { return nil }); errs != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
}
