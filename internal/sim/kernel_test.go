package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestKernelRunsInTimestampOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		k.Schedule(d, func() { got = append(got, k.Now()) })
	}
	k.RunAll()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKernelSameInstantFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(100, func() { order = append(order, i) })
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ev := k.Schedule(5, func() { fired = true })
	ev.Cancel()
	k.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	if k.Processed() != 0 {
		t.Errorf("Processed() = %d, want 0", k.Processed())
	}
}

func TestKernelCancelIsIdempotent(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(1, func() {})
	ev.Cancel()
	ev.Cancel()
	var zero EventID
	zero.Cancel() // must not panic
	if zero.Canceled() || zero.Pending() || zero.At() != 0 {
		t.Error("zero EventID must be inert")
	}
	k.RunAll()
}

func TestKernelCancelAfterFire(t *testing.T) {
	k := NewKernel()
	fired := 0
	ev := k.Schedule(5, func() { fired++ })
	k.RunAll()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	ev.Cancel() // must be a no-op on an already fired event
	if ev.Canceled() {
		t.Error("Canceled() = true after a post-fire Cancel")
	}
	if ev.Pending() {
		t.Error("Pending() = true after fire")
	}
	if k.Processed() != 1 {
		t.Errorf("Processed() = %d, want 1", k.Processed())
	}
}

func TestKernelStaleHandleDoesNotCancelReusedSlot(t *testing.T) {
	k := NewKernel()
	// Fire one event so its arena slot returns to the freelist.
	stale := k.Schedule(1, func() {})
	k.RunAll()
	// The next event reuses the slot; the stale handle must not reach it.
	fired := false
	fresh := k.Schedule(1, func() { fired = true })
	stale.Cancel()
	if stale.Pending() || stale.Canceled() {
		t.Error("stale handle reports live state")
	}
	if !fresh.Pending() {
		t.Error("fresh event lost its pending state to a stale Cancel")
	}
	k.RunAll()
	if !fired {
		t.Error("stale Cancel suppressed a reused slot's event")
	}
}

func TestKernelCancelReleasesClosure(t *testing.T) {
	k := NewKernel()
	big := make([]byte, 1<<20)
	ev := k.Schedule(1000, func() { _ = big[0] })
	ev.Cancel()
	// The kernel must have dropped its reference to the closure at Cancel
	// time, even though the queue entry drains lazily. We cannot observe the
	// GC directly here; assert the visible half: the event cannot fire.
	k.RunAll()
	if k.Processed() != 0 {
		t.Errorf("Processed() = %d, want 0", k.Processed())
	}
}

func TestKernelLazyCompaction(t *testing.T) {
	k := NewKernel()
	const n = 1000
	ids := make([]EventID, 0, n)
	fired := 0
	for i := 0; i < n; i++ {
		ids = append(ids, k.Schedule(Time(i+1), func() { fired++ }))
	}
	// Cancel everything but every 10th event; compaction must shrink the
	// queue well below n long before the clock drains past the timestamps.
	for i, ev := range ids {
		if i%10 != 0 {
			ev.Cancel()
		}
	}
	if p := k.Pending(); p > n/5 {
		t.Errorf("Pending() = %d after mass cancellation, want compaction below %d", p, n/5)
	}
	k.RunAll()
	if fired != n/10 {
		t.Errorf("fired = %d, want %d", fired, n/10)
	}
}

func TestKernelStopMidRun(t *testing.T) {
	k := NewKernel()
	var fired []Time
	for i := 1; i <= 5; i++ {
		i := i
		k.Schedule(Time(i*10), func() {
			fired = append(fired, k.Now())
			if i == 2 {
				k.Stop()
			}
		})
	}
	k.Run(Never)
	if len(fired) != 2 || k.Now() != 20 {
		t.Fatalf("Stop mid-run: fired %v, now %v; want 2 events and now=20", fired, k.Now())
	}
	// Scheduling and resuming after a Stop must pick up where it left off.
	k.Schedule(5, func() { fired = append(fired, k.Now()) })
	k.Run(Never)
	want := []Time{10, 20, 25, 30, 40, 50}
	if len(fired) != len(want) {
		t.Fatalf("resume: fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Errorf("resume: fired[%d] = %v, want %v", i, fired[i], want[i])
		}
	}
}

func TestKernelAtCall(t *testing.T) {
	k := NewKernel()
	type ctx struct{ hits int }
	c := &ctx{}
	fn := func(a any) { a.(*ctx).hits++ }
	k.AtCall(3, fn, c)
	ev := k.AtCall(5, fn, c)
	ev.Cancel()
	k.RunAll()
	if c.hits != 1 {
		t.Errorf("AtCall hits = %d, want 1", c.hits)
	}
}

// Property: same-timestamp events fire in scheduling order even when the
// schedule interleaves cancellations (slot reuse must not disturb the
// (time, seq) ordering of the new heap).
func TestKernelSameInstantOrderWithCancels(t *testing.T) {
	k := NewKernel()
	var order []int
	var ids []EventID
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			n := round*20 + i
			ids = append(ids, k.Schedule(100, func() { order = append(order, n) }))
		}
		// Cancel half of the newest batch to churn the freelist.
		for i := 0; i < 10; i++ {
			ids[round*20+2*i].Cancel()
		}
	}
	k.RunAll()
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("same-instant events fired out of scheduling order: %v", order)
		}
	}
	if len(order) != 50 {
		t.Errorf("fired %d events, want 50", len(order))
	}
}

func TestKernelRunUntilBoundary(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.Schedule(10, func() { fired = append(fired, 10) })
	k.Schedule(20, func() { fired = append(fired, 20) })
	k.Schedule(30, func() { fired = append(fired, 30) })
	k.Run(20) // inclusive boundary
	if len(fired) != 2 {
		t.Fatalf("Run(20) fired %d events, want 2 (boundary inclusive)", len(fired))
	}
	if k.Now() != 20 {
		t.Errorf("Now() = %v, want 20", k.Now())
	}
	k.Run(100)
	if len(fired) != 3 {
		t.Errorf("continuation run fired %d total events, want 3", len(fired))
	}
}

func TestKernelClockAdvancesToUntil(t *testing.T) {
	k := NewKernel()
	k.Run(500)
	if k.Now() != 500 {
		t.Errorf("empty run: Now() = %v, want 500", k.Now())
	}
}

func TestKernelEventsScheduleEvents(t *testing.T) {
	k := NewKernel()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			k.Schedule(7, tick)
		}
	}
	k.Schedule(0, tick)
	k.RunAll()
	if count != 100 {
		t.Errorf("chained ticks = %d, want 100", count)
	}
	if k.Now() != 99*7 {
		t.Errorf("Now() = %v, want %v", k.Now(), Time(99*7))
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 0; i < 10; i++ {
		k.Schedule(Time(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run(Never)
	if count != 3 {
		t.Errorf("Stop: fired %d, want 3", count)
	}
	// Run may be resumed afterwards.
	k.Run(Never)
	if count != 10 {
		t.Errorf("resume after Stop: fired %d, want 10", count)
	}
}

func TestKernelPanicsOnPastSchedule(t *testing.T) {
	k := NewKernel()
	k.Schedule(10, func() {})
	k.RunAll()
	defer func() {
		if recover() == nil {
			t.Error("scheduling into the past did not panic")
		}
	}()
	k.At(5, func() {})
}

func TestKernelPanicsOnNegativeDelay(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	k.Schedule(-1, func() {})
}

// TestKernelPanicMessagesCarryContext pins that scheduling-misuse panics
// name the kernel time and live-event count — the difference between a
// reproducible bug report and a bare "negative delay" from somewhere inside
// a million-event run.
func TestKernelPanicMessagesCarryContext(t *testing.T) {
	check := func(name string, f func(k *Kernel)) {
		k := NewKernel()
		k.Schedule(10, func() {})
		k.Schedule(20, func() {})
		k.Run(15)
		defer func() {
			v := recover()
			if v == nil {
				t.Errorf("%s: no panic", name)
				return
			}
			msg, ok := v.(string)
			if !ok {
				t.Errorf("%s: panic value %T is not a string", name, v)
				return
			}
			for _, want := range []string{"now=", "processed=1", "live=1"} {
				if !strings.Contains(msg, want) {
					t.Errorf("%s: panic %q missing %q", name, msg, want)
				}
			}
		}()
		f(k)
	}
	check("negative delay", func(k *Kernel) { k.Schedule(-1, func() {}) })
	check("nil function", func(k *Kernel) { k.Schedule(1, nil) })
	check("past schedule", func(k *Kernel) { k.At(5, func() {}) })
}

func TestKernelLive(t *testing.T) {
	k := NewKernel()
	a := k.Schedule(10, func() {})
	k.Schedule(20, func() {})
	if got := k.Live(); got != 2 {
		t.Fatalf("Live() = %d, want 2", got)
	}
	a.Cancel()
	if got := k.Live(); got != 1 {
		t.Fatalf("Live() after cancel = %d, want 1", got)
	}
}

func TestKernelEventBudget(t *testing.T) {
	k := NewKernel()
	fired := 0
	// A self-rescheduling chain would run 100 events without a budget.
	var tick func()
	tick = func() {
		fired++
		if fired < 100 {
			k.Schedule(1, tick)
		}
	}
	k.Schedule(1, tick)
	k.SetBudget(10, 0)
	k.RunAll()
	if fired != 10 {
		t.Fatalf("fired %d events under a 10-event budget", fired)
	}
	if !k.BudgetExhausted() {
		t.Fatal("BudgetExhausted() false after truncation")
	}
	// The event budget is cumulative across Run calls: a fresh Run against
	// the same exhausted budget makes no progress (this is what lets the
	// sharded scheduler's epoch-sized Runs truncate at the same event as one
	// continuous Run would).
	k.RunAll()
	if fired != 10 {
		t.Fatalf("second Run against an exhausted budget fired up to %d, want 10", fired)
	}
	// Raising the budget resumes the chain from where it stopped.
	k.SetBudget(25, 0)
	k.RunAll()
	if fired != 25 {
		t.Fatalf("after raising the budget, fired up to %d, want 25", fired)
	}
}

func TestKernelWallBudget(t *testing.T) {
	k := NewKernel()
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired < 100000 {
			k.Schedule(1, tick)
		}
	}
	k.Schedule(1, tick)
	k.SetBudget(0, time.Nanosecond)
	k.RunAll()
	if fired >= 100000 {
		t.Fatal("nanosecond wall budget did not truncate")
	}
	if !k.BudgetExhausted() {
		t.Fatal("BudgetExhausted() false after wall truncation")
	}
}

func TestKernelInvariantChecksAcceptHealthyRuns(t *testing.T) {
	k := NewKernel()
	k.SetInvariantChecks(true)
	n := 0
	for i := 0; i < 500; i++ {
		k.Schedule(Time(i%7), func() { n++ })
	}
	k.RunAll()
	if n != 500 {
		t.Fatalf("processed %d events, want 500", n)
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the processed count equals the number of scheduled events.
func TestKernelOrderProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, d := range delays {
			k.Schedule(Time(d), func() { fired = append(fired, k.Now()) })
		}
		k.RunAll()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return k.Processed() == uint64(len(delays))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0.000000s"},
		{1500000, "1.500000s"},
		{Never, "never"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromSeconds(t *testing.T) {
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", got)
	}
	if got := FromSeconds(0); got != 0 {
		t.Errorf("FromSeconds(0) = %v", got)
	}
}

func TestKernelAtCallEarlyFiresBeforeNormalEventsAtSameInstant(t *testing.T) {
	k := NewKernel()
	var got []string
	push := func(s string) func(any) { return func(any) { got = append(got, s) } }
	// A normal event scheduled long before the early one must still yield.
	k.At(10, func() { got = append(got, "normal-1") })
	k.AtCall(10, push("normal-2"), nil)
	k.AtCallEarly(10, push("early-1"), nil)
	k.At(10, func() { got = append(got, "normal-3") })
	k.AtCallEarly(10, push("early-2"), nil)
	k.RunAll()
	want := []string{"early-1", "early-2", "normal-1", "normal-2", "normal-3"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestKernelAtCallEarlyKeepsTimestampOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	fn := func(any) { got = append(got, k.Now()) }
	k.AtCallEarly(20, fn, nil)
	k.At(10, func() { got = append(got, k.Now()) })
	k.AtCallEarly(5, fn, nil)
	k.RunAll()
	if len(got) != 3 || got[0] != 5 || got[1] != 10 || got[2] != 20 {
		t.Fatalf("fired at %v, want [5 10 20]", got)
	}
}

func TestKernelAtCallEarlyCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ev := k.AtCallEarly(10, func(any) { fired = true }, nil)
	ev.Cancel()
	k.RunAll()
	if fired {
		t.Error("cancelled early event fired")
	}
	if k.Processed() != 0 {
		t.Errorf("Processed() = %d, want 0", k.Processed())
	}
}

// countSorts wraps the kernel's batch comparator so a test can tell whether
// drain sorted a batch.
func countSorts(k *Kernel) *int {
	calls := new(int)
	cmp := k.batchCmp
	k.batchCmp = func(a, b uint32) int {
		*calls++
		return cmp(a, b)
	}
	return calls
}

// TestKernelDrainSortsOnlyOutOfOrderBatches covers both branches of drain:
// a batch assembled from two chains with an early event behind normal ones
// (plus events spliced in from inside the batch) must be sorted into exact
// (early, seq) order, and a single FIFO chain fires as queued without a sort.
func TestKernelDrainSortsOnlyOutOfOrderBatches(t *testing.T) {
	const at = Time(1000)
	t.Run("sort needed", func(t *testing.T) {
		k := NewKernel()
		calls := countSorts(k)
		var got []string
		rec := func(a any) { got = append(got, a.(string)) }
		k.AtCall(at, func(any) {
			rec("n1")
			k.AtCallEarly(at, rec, "e2") // spliced before the remaining normals
			k.AtCall(at, rec, "n4")      // spliced last
		}, nil)
		k.AtCall(at, rec, "n2")
		// Evict the instant's chain tail: schedule more than tcacheSize other
		// instants, ending on one that shares its cache entry.
		for d := Time(1); ; d++ {
			k.AtCall(at+d, func(any) {}, nil)
			if d > tcacheSize && tcacheSlot(at+d) == tcacheSlot(at) {
				break
			}
		}
		k.AtCall(at, rec, "n3")
		k.AtCallEarly(at, rec, "e1") // early, behind n3 in the second chain
		heads := 0
		for _, idx := range k.heap {
			if k.slots[idx].at == at {
				heads++
			}
		}
		if heads < 2 {
			t.Fatalf("instant has %d chains, want >= 2 (tail cache not evicted)", heads)
		}
		k.Run(at)
		if want := "e1 n1 e2 n2 n3 n4"; strings.Join(got, " ") != want {
			t.Errorf("fired %q, want %q", strings.Join(got, " "), want)
		}
		if *calls == 0 {
			t.Error("out-of-order batch was not sorted")
		}
	})
	t.Run("sort skipped", func(t *testing.T) {
		k := NewKernel()
		calls := countSorts(k)
		var got []string
		rec := func(a any) { got = append(got, a.(string)) }
		k.AtCallEarly(at, rec, "e1")
		for _, name := range []string{"n1", "n2", "n3", "n4"} {
			k.AtCall(at, rec, name)
		}
		k.Run(at)
		if want := "e1 n1 n2 n3 n4"; strings.Join(got, " ") != want {
			t.Errorf("fired %q, want %q", strings.Join(got, " "), want)
		}
		if *calls != 0 {
			t.Errorf("in-order batch was sorted (%d comparisons)", *calls)
		}
	})
}
