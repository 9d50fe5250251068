package sim

import (
	"fmt"
	"slices"
	"time"
)

// EventID is a generation-counted handle to a scheduled callback, returned
// by Kernel.Schedule, Kernel.At and Kernel.AtCall. It is a small value (not
// a pointer into the kernel's event storage), so the kernel is free to
// recycle the underlying slot after the event fires or is compacted away:
// a stale handle becomes inert rather than aliasing a newer event. The zero
// value is inert.
type EventID struct {
	k   *Kernel
	idx uint32
	gen uint32
}

// live reports whether the handle still refers to its original, un-fired
// occupant of the slot.
func (e EventID) live() bool {
	return e.k != nil && e.k.slots[e.idx].gen == e.gen
}

// At reports the instant the event is scheduled for, or 0 when the event
// already fired, was recycled, or e is the zero value.
func (e EventID) At() Time {
	if !e.live() {
		return 0
	}
	return e.k.slots[e.idx].at
}

// Pending reports whether the event is still queued and will fire.
func (e EventID) Pending() bool {
	return e.live() && !e.k.slots[e.idx].canceled
}

// Cancel prevents the event from firing. Cancelling an already fired,
// already cancelled or recycled event — or the zero EventID — is a no-op.
// The event's callback (and everything it captures) is released immediately;
// the queue entry itself is dropped lazily.
func (e EventID) Cancel() {
	if !e.live() {
		return
	}
	k := e.k
	s := &k.slots[e.idx]
	if s.canceled {
		return
	}
	s.canceled = true
	s.fn = nil
	s.fnArg = nil
	s.arg = nil
	k.canceledQueued++
	k.maybeCompact()
}

// Canceled reports whether Cancel was called before the event fired. After
// the kernel recycles the slot for a newer event the answer degrades to
// false (the handle is stale and carries no history).
func (e EventID) Canceled() bool {
	if e.k == nil {
		return false
	}
	s := &e.k.slots[e.idx]
	// gen == e.gen: still queued (possibly cancelled, awaiting compaction).
	// gen == e.gen+1: freed but not yet reused; the flag still describes us.
	if s.gen != e.gen && s.gen != e.gen+1 {
		return false
	}
	return s.canceled
}

// eventSlot is one arena entry. Slots are recycled through a freelist; gen
// is odd while the slot is live and even while it is free, incrementing on
// every allocation and every release so stale EventIDs can never match.
type eventSlot struct {
	at    Time
	seq   uint64
	fn    func()
	fnArg func(any)
	arg   any
	// next links slots scheduled for the same instant into a FIFO chain
	// (stored as idx+1; 0 terminates). Only the chain head sits in the heap,
	// so the heap tracks distinct timestamps rather than individual events.
	next     uint32
	gen      uint32
	canceled bool
	// early events fire before every normal event sharing their timestamp,
	// regardless of scheduling order (see AtCallEarly).
	early bool
}

// tcacheSize is the number of recently appended-to chains the kernel
// remembers (power of two). A cache hit turns scheduling at an already
// queued instant into a pointer append — no heap traffic at all.
const tcacheSize = 4

// tcacheEntry remembers the tail of a queued chain so that another event
// for the same instant can be appended in O(1). tail is idx+1; 0 = empty.
type tcacheEntry struct {
	at   Time
	tail uint32
}

// Kernel is a sequential discrete event simulator. It is not safe for
// concurrent use; replicated runs each own a private Kernel.
//
// Events live in a kernel-owned arena. Same-instant events are linked into
// FIFO chains, an index-based 4-ary min-heap orders the chain heads by
// time, and Run drains one instant at a time into a reusable batch buffer,
// restores the exact (early, seq) order (sorting only a batch that arrived
// out of order), and dispatches
// sequentially — so the per-event cost in same-instant bursts is an append
// and a compare, not a heap sift. Steady state performs no allocations.
type Kernel struct {
	slots []eventSlot
	free  []uint32 // freelist of recycled slot indices
	heap  []uint32 // 4-ary min-heap of chain-head slot indices, ordered by (at, seq)

	// batch holds the instant currently being dispatched, in firing order;
	// batchPos is the next entry to dispatch. The buffer is reused across
	// instants. batchAt is the batch's timestamp while dispatching is true;
	// events scheduled for exactly that instant from inside a callback are
	// spliced into the batch instead of touching the heap.
	batch       []uint32
	batchPos    int
	batchAt     Time
	dispatching bool

	// tcache maps a few recent instants to their chain tails for O(1)
	// same-time appends. Entries are invalidated when their instant drains,
	// and wholesale on compaction.
	tcache [tcacheSize]tcacheEntry

	// batchCmp is the (early, seq) comparator for sorting a drained batch,
	// built once so sorting stays allocation-free.
	batchCmp func(a, b uint32) int

	now     Time
	seq     uint64
	stopped bool
	// queued counts events that are scheduled but have not yet fired or
	// been dropped (chained, heaped or sitting in the live batch).
	queued int
	// canceledQueued counts cancelled events still occupying queue entries;
	// when they dominate the queue it is compacted.
	canceledQueued int
	// processed counts events that actually fired (cancelled events are
	// excluded); exposed for benchmarks and sanity checks.
	processed uint64

	// budgetEvents/budgetWall bound each Run call when positive (SetBudget);
	// budgetHit latches that a Run stopped early on an exhausted budget.
	budgetEvents uint64
	budgetWall   time.Duration
	budgetHit    bool

	// invariantChecks enables the opt-in runtime self-checks (time order on
	// dispatch). Off by default: the checks are for tests and fuzzing.
	invariantChecks bool
}

// NewKernel returns a kernel with the clock at zero and an empty queue.
func NewKernel() *Kernel {
	k := &Kernel{
		slots: make([]eventSlot, 0, 1024),
		heap:  make([]uint32, 0, 64),
		batch: make([]uint32, 0, 256),
	}
	k.batchCmp = func(a, b uint32) int {
		sa, sb := &k.slots[a], &k.slots[b]
		if sa.early != sb.early {
			if sa.early {
				return -1
			}
			return 1
		}
		if sa.seq < sb.seq {
			return -1
		}
		return 1
	}
	return k
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of queued (possibly cancelled) events.
func (k *Kernel) Pending() int { return k.queued }

// Processed reports how many events have fired so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Live reports the number of queued events that will actually fire
// (cancelled entries awaiting compaction are excluded).
func (k *Kernel) Live() int { return k.queued - k.canceledQueued }

// SetBudget bounds the kernel's remaining work: once the lifetime processed
// count reaches maxEvents (0 = unlimited), or a single Run call spends
// maxWall of real time (0 = unlimited, checked every 4096 events), the run
// stops early and BudgetExhausted reports true. The event budget is
// cumulative across Run calls, so a driver stepping the kernel in epochs
// (the sharded scheduler) truncates at the same event as one continuous
// Run. This is the opt-in guard for replicated sweeps — a runaway
// replication is truncated and marked instead of hanging the whole sweep.
// An event budget keeps truncation deterministic; a wall-clock budget does
// not.
func (k *Kernel) SetBudget(maxEvents uint64, maxWall time.Duration) {
	k.budgetEvents = maxEvents
	k.budgetWall = maxWall
}

// BudgetExhausted reports whether any Run so far stopped early because a
// SetBudget limit expired.
func (k *Kernel) BudgetExhausted() bool { return k.budgetHit }

// SetInvariantChecks toggles the kernel's opt-in runtime self-checks
// (currently: dispatched events must never travel back in time). Tests and
// the fuzzing harnesses enable them; production sweeps leave them off.
func (k *Kernel) SetInvariantChecks(on bool) { k.invariantChecks = on }

// ctx renders the kernel's position for panic messages, so a post-mortem
// knows when the impossible happened and how much work was still queued.
func (k *Kernel) ctx() string {
	return fmt.Sprintf("now=%v processed=%d live=%d", k.now, k.processed, k.Live())
}

// Schedule enqueues fn to run after delay d (d must be >= 0) and returns a
// cancellable handle.
func (k *Kernel) Schedule(d Time, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d (%s)", d, k.ctx()))
	}
	return k.At(k.now+d, fn)
}

// At enqueues fn to run at absolute time t (t must not be in the past) and
// returns a cancellable handle.
func (k *Kernel) At(t Time, fn func()) EventID {
	if fn == nil {
		panic(fmt.Sprintf("sim: nil event function (%s)", k.ctx()))
	}
	idx, s := k.alloc(t)
	s.fn = fn
	gen := s.gen
	k.enqueue(idx, t, false)
	return EventID{k: k, idx: idx, gen: gen}
}

// AtCall enqueues fn(arg) to run at absolute time t. Unlike At it needs no
// closure: hot paths keep one long-lived fn and pass per-event context
// through arg (a pointer in an interface does not allocate), which keeps
// scheduling entirely allocation-free.
func (k *Kernel) AtCall(t Time, fn func(arg any), arg any) EventID {
	if fn == nil {
		panic(fmt.Sprintf("sim: nil event function (%s)", k.ctx()))
	}
	idx, s := k.alloc(t)
	s.fnArg = fn
	s.arg = arg
	gen := s.gen
	k.enqueue(idx, t, false)
	return EventID{k: k, idx: idx, gen: gen}
}

// AtCallEarly is AtCall for state-expiry bookkeeping: the event fires at t
// before every normal event scheduled for the same instant, regardless of
// scheduling order. Simulation layers use it to retire state whose validity
// interval is half-open [start, t) — e.g. the radio medium's channel-busy
// counters — so that a normal event executing exactly at t already observes
// the state as expired. Early events must not have observable side effects
// beyond such bookkeeping: among themselves they still fire in scheduling
// order, but their position relative to normal events differs from plain
// AtCall.
func (k *Kernel) AtCallEarly(t Time, fn func(arg any), arg any) EventID {
	if fn == nil {
		panic(fmt.Sprintf("sim: nil event function (%s)", k.ctx()))
	}
	idx, s := k.alloc(t)
	s.fnArg = fn
	s.arg = arg
	s.early = true
	gen := s.gen
	k.enqueue(idx, t, true)
	return EventID{k: k, idx: idx, gen: gen}
}

// alloc takes a slot from the freelist (or grows the arena), stamps it with
// t and the next sequence number and returns it. The returned pointer is
// only valid until the next alloc.
func (k *Kernel) alloc(t Time) (uint32, *eventSlot) {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule into the past: at=%v (%s)", t, k.ctx()))
	}
	k.seq++
	var idx uint32
	if n := len(k.free); n > 0 {
		idx = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.slots = append(k.slots, eventSlot{})
		idx = uint32(len(k.slots) - 1)
	}
	s := &k.slots[idx]
	s.at = t
	s.seq = k.seq
	s.gen++ // odd: live
	s.canceled = false
	s.early = false
	s.next = 0
	return idx, s
}

// release returns a fired or compacted slot to the freelist, dropping the
// callback (and everything it captures) immediately.
func (k *Kernel) release(idx uint32) {
	s := &k.slots[idx]
	s.fn = nil
	s.fnArg = nil
	s.arg = nil
	s.gen++ // even: free
	k.free = append(k.free, idx)
}

// tcacheSlot hashes an instant into the chain-tail cache.
func tcacheSlot(t Time) int {
	return int((uint64(t) * 0x9E3779B97F4A7C15) >> 62)
}

// enqueue routes a freshly allocated slot to its queue position: spliced
// into the live batch when a callback schedules for the instant currently
// dispatching, appended to a cached chain on a tail-cache hit, or pushed as
// a new chain head otherwise.
func (k *Kernel) enqueue(idx uint32, t Time, early bool) {
	k.queued++
	if k.dispatching && t == k.batchAt {
		k.batchInsert(idx, early)
		return
	}
	h := tcacheSlot(t)
	if e := &k.tcache[h]; e.tail != 0 && e.at == t {
		k.slots[e.tail-1].next = idx + 1
		e.tail = idx + 1
		return
	}
	k.heapPush(idx)
	k.tcache[h] = tcacheEntry{at: t, tail: idx + 1}
}

// batchInsert splices an event scheduled for the instant currently being
// dispatched into the batch. It carries the highest sequence number seen so
// far, so a normal event goes last; an early event goes after the remaining
// early events but before every remaining normal one — exactly where the
// (at, early, seq) order puts it.
func (k *Kernel) batchInsert(idx uint32, early bool) {
	if !early {
		k.batch = append(k.batch, idx)
		return
	}
	// Binary search the undispatched tail for the first normal event.
	lo, hi := k.batchPos, len(k.batch)
	for lo < hi {
		mid := (lo + hi) / 2
		if k.slots[k.batch[mid]].early {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	k.batch = append(k.batch, 0)
	copy(k.batch[lo+1:], k.batch[lo:])
	k.batch[lo] = idx
}

// less orders two chain heads by (time, sequence). Only distinct instants
// compete in the heap — exact same-instant ordering is restored by the
// batch sort — but the sequence tiebreak keeps the layout deterministic
// when cache misses produce several chains for one instant.
func (k *Kernel) less(a, b uint32) bool {
	sa, sb := &k.slots[a], &k.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// heapPush appends idx and sifts it up the 4-ary heap.
func (k *Kernel) heapPush(idx uint32) {
	k.heap = append(k.heap, idx)
	i := len(k.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !k.less(k.heap[i], k.heap[p]) {
			break
		}
		k.heap[i], k.heap[p] = k.heap[p], k.heap[i]
		i = p
	}
}

// heapPop removes the minimum (heap[0]).
func (k *Kernel) heapPop() {
	n := len(k.heap) - 1
	k.heap[0] = k.heap[n]
	k.heap = k.heap[:n]
	if n > 0 {
		k.siftDown(0)
	}
}

func (k *Kernel) siftDown(i int) {
	n := len(k.heap)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if k.less(k.heap[c], k.heap[best]) {
				best = c
			}
		}
		if !k.less(k.heap[best], k.heap[i]) {
			return
		}
		k.heap[i], k.heap[best] = k.heap[best], k.heap[i]
		i = best
	}
}

// compactThreshold is the minimum number of cancelled entries before lazy
// compaction kicks in; below it, dropping them at dispatch is cheaper.
const compactThreshold = 64

// maybeCompact rebuilds the queue without cancelled entries once they make
// up more than half of it. Cancellation is otherwise lazy (entries of
// cancelled events are dropped when their instant dispatches), so a
// workload that cancels almost everything it schedules — e.g. ACK timers —
// cannot grow the queue without bound. Cancelled events sitting in the live
// batch are skipped at dispatch instead; the counter is adjusted per entry
// actually removed, so their accounting survives a compaction.
func (k *Kernel) maybeCompact() {
	if k.canceledQueued <= compactThreshold || k.canceledQueued*2 <= k.queued {
		return
	}
	removed := 0
	kept := k.heap[:0]
	for _, head := range k.heap {
		newHead := uint32(0) // idx+1; 0 = chain fully cancelled
		tail := uint32(0)
		cur := head
		for {
			next := k.slots[cur].next
			if k.slots[cur].canceled {
				k.release(cur)
				removed++
			} else {
				k.slots[cur].next = 0
				if newHead == 0 {
					newHead = cur + 1
				} else {
					k.slots[tail-1].next = cur + 1
				}
				tail = cur + 1
			}
			if next == 0 {
				break
			}
			cur = next - 1
		}
		if newHead != 0 {
			kept = append(kept, newHead-1)
		}
	}
	k.heap = kept
	k.canceledQueued -= removed
	k.queued -= removed
	for i := (len(k.heap) - 2) / 4; i >= 0; i-- {
		k.siftDown(i)
	}
	// Chain tails may have been unlinked or rechained; drop every cached tail.
	for i := range k.tcache {
		k.tcache[i].tail = 0
	}
}

// drain pops every chain scheduled for instant t off the heap into the
// batch buffer and restores the exact (early, seq) firing order. Chains are
// seq-ordered and pop in head-seq order, so the batch usually arrives
// sorted; drain notes any pair out of order as it appends and sorts only
// then (an early event behind a normal one, or singleton chains re-queued
// by a cut-short Run). Keys are unique, so skipping the sort of a sorted
// batch changes nothing.
func (k *Kernel) drain(t Time) {
	k.batchAt = t
	sorted := true
	prevEarly, prevSeq := true, uint64(0)
	for len(k.heap) > 0 {
		idx := k.heap[0]
		if k.slots[idx].at != t {
			break
		}
		k.heapPop()
		for {
			k.batch = append(k.batch, idx)
			s := &k.slots[idx]
			if s.early != prevEarly {
				sorted = sorted && prevEarly
			} else {
				sorted = sorted && s.seq > prevSeq
			}
			prevEarly, prevSeq = s.early, s.seq
			next := s.next
			s.next = 0
			if next == 0 {
				break
			}
			idx = next - 1
		}
	}
	for i := range k.tcache {
		if k.tcache[i].tail != 0 && k.tcache[i].at == t {
			k.tcache[i].tail = 0
		}
	}
	if !sorted {
		slices.SortFunc(k.batch, k.batchCmp)
	}
	k.dispatching = true
}

// requeueBatch pushes the undispatched remainder of the batch back onto the
// heap (as singleton chains) when Stop or a budget cuts a Run short
// mid-instant; their sequence numbers restore the order on the next drain.
func (k *Kernel) requeueBatch() {
	for _, idx := range k.batch[k.batchPos:] {
		k.heapPush(idx)
	}
	k.batch = k.batch[:0]
	k.batchPos = 0
	k.dispatching = false
}

// Stop makes Run return after the currently executing event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events in timestamp order until the queue is empty or the
// next event lies strictly after `until`. The clock is left at the time of
// the last executed event (or at `until` if nothing remained to execute
// before it).
func (k *Kernel) Run(until Time) {
	k.stopped = false
	fired := uint64(0)
	var wallStart time.Time
	if k.budgetWall > 0 {
		wallStart = time.Now()
	}
	for {
		if k.batchPos < len(k.batch) {
			if k.stopped {
				k.requeueBatch()
				break
			}
			if k.budgetEvents > 0 && k.processed >= k.budgetEvents {
				k.budgetHit = true
				k.requeueBatch()
				break
			}
			if k.budgetWall > 0 && fired&4095 == 4095 && time.Since(wallStart) > k.budgetWall {
				k.budgetHit = true
				k.requeueBatch()
				break
			}
			idx := k.batch[k.batchPos]
			k.batchPos++
			s := &k.slots[idx]
			k.queued--
			if s.canceled {
				k.canceledQueued--
				k.release(idx)
				continue
			}
			if k.invariantChecks && s.at < k.now {
				panic(fmt.Sprintf("sim: heap order violated: popped at=%v (%s)", s.at, k.ctx()))
			}
			fired++
			// Copy out before releasing: the slot is recycled before the
			// callback runs, so the callback may reuse it (and may grow the
			// arena, invalidating s).
			at, fn, fnArg, arg := s.at, s.fn, s.fnArg, s.arg
			k.release(idx)
			k.now = at
			k.processed++
			if fn != nil {
				fn()
			} else {
				fnArg(arg)
			}
			continue
		}
		k.batch = k.batch[:0]
		k.batchPos = 0
		k.dispatching = false
		if len(k.heap) == 0 || k.stopped {
			break
		}
		if k.budgetEvents > 0 && k.processed >= k.budgetEvents {
			k.budgetHit = true
			break
		}
		if k.budgetWall > 0 && fired&4095 == 4095 && time.Since(wallStart) > k.budgetWall {
			k.budgetHit = true
			break
		}
		t := k.slots[k.heap[0]].at
		if t > until {
			break
		}
		k.drain(t)
	}
	if until != Never && k.now < until {
		k.now = until
	}
}

// RunAll executes every queued event regardless of timestamp. Intended for
// tests; scenario code should bound runs with Run(until).
func (k *Kernel) RunAll() { k.Run(Never) }
