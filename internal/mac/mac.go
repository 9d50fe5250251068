// Package mac provides the channel-access-independent half of a MAC layer:
// transmit queue management, immediate acknowledgements, retransmission and
// drop bookkeeping, duplicate rejection, multi-hop forwarding and the
// queue-level statistics the paper's figures report. The QMA engine
// (internal/core) and the CSMA/CA baselines (internal/csma) embed Base and
// contribute only their channel access discipline, which keeps the
// comparison between the schemes honest: everything except access timing is
// shared code.
package mac

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// DefaultMaxRetries is macMaxFrameRetries (NR = 3): a unicast frame is
// dropped after three failed retransmissions (§4, "a packet is dropped after
// NR retransmission as in CSMA/CA").
const DefaultMaxRetries = 3

// Router decides the next hop towards a sink. Implementations are static
// routing trees built by internal/topo.
type Router interface {
	// NextHop returns the neighbour `from` should forward to in order to
	// reach sink, and whether a route exists.
	NextHop(from, sink frame.NodeID) (frame.NodeID, bool)
}

// Engine is the interface scenario builders wire to traffic generators and
// the radio. Both the QMA engine and the CSMA/CA engines implement it.
type Engine interface {
	radio.Handler
	// Start arms the engine's channel access on its kernel. It must be
	// called exactly once, before any traffic arrives.
	Start()
	// Enqueue offers a frame for transmission and reports whether the
	// transmit queue accepted it.
	Enqueue(f *frame.Frame) bool
	// Base exposes the shared state for statistics collection.
	Base() *Base
}

// Stats aggregates the per-node MAC counters the evaluation reports.
type Stats struct {
	// Enqueued counts frames accepted into the transmit queue.
	Enqueued uint64
	// QueueDrops counts frames rejected because the queue was full.
	QueueDrops uint64
	// TxAttempts counts data transmissions put on the air (excluding ACKs).
	TxAttempts uint64
	// TxSuccess counts acknowledged unicasts plus sent broadcasts.
	TxSuccess uint64
	// TxFail counts unicast attempts with no acknowledgement.
	TxFail uint64
	// RetryDrops counts frames dropped after MaxRetries failed attempts.
	RetryDrops uint64
	// CSMAFails counts frames dropped because the CSMA backoff algorithm
	// exceeded macMaxCSMABackoffs (QMA never increments this: it backs off
	// indefinitely, §4).
	CSMAFails uint64
	// AcksSent counts immediate acknowledgements transmitted.
	AcksSent uint64
	// Delivered counts data frames accepted at this node as final sink.
	Delivered uint64
	// Forwarded counts data frames re-queued towards their sink.
	Forwarded uint64
	// Duplicates counts received frames rejected as duplicates.
	Duplicates uint64
	// FaultTxSuppressed counts transmissions suppressed by fault injection
	// (internal/faults): the node was down or had lost beacon sync, so the
	// frame never reached the air even though the engine went through its
	// full transmit sequence.
	FaultTxSuppressed uint64
	// FaultRxDropped counts frames that arrived while the node was down.
	FaultRxDropped uint64
	// AcksCorrupted counts acknowledgements discarded undecoded inside an
	// ACK-corruption window.
	AcksCorrupted uint64
	// Reboots counts power-cycle faults applied to this node.
	Reboots uint64
	// Barred counts channel-access attempts denied by the access-class
	// barring gate (internal/barring): the Bernoulli(p) draw failed and the
	// engine waited out the barring backoff.
	Barred uint64
	// DeadlineDrops counts queued frames evicted by the DeadlineDrop policy
	// because they exceeded their queueing deadline while the queue was full.
	DeadlineDrops uint64
}

// DropPolicy selects what a full transmit queue sacrifices when another
// frame arrives. The zero value is TailDrop, the pre-existing behaviour.
type DropPolicy uint8

const (
	// TailDrop rejects the incoming frame (the default).
	TailDrop DropPolicy = iota
	// DropOldest evicts the oldest queued frame that is not the in-service
	// head to make room for the newcomer — under overload, fresh data beats
	// stale data.
	DropOldest
	// DeadlineDrop evicts queued non-head frames older than the configured
	// deadline; when nothing has expired it falls back to tail-drop. The
	// IIoT framing: a sensor reading past its deadline is worthless, so it
	// should not occupy a queue slot under backpressure.
	DeadlineDrop
)

// ParseDropPolicy resolves the CLI/public-API spelling of a drop policy.
func ParseDropPolicy(s string) (DropPolicy, error) {
	switch s {
	case "", "tail":
		return TailDrop, nil
	case "oldest":
		return DropOldest, nil
	case "deadline":
		return DeadlineDrop, nil
	}
	return TailDrop, fmt.Errorf("mac: unknown drop policy %q (want tail, oldest or deadline)", s)
}

// String reports the canonical spelling.
func (d DropPolicy) String() string {
	switch d {
	case DropOldest:
		return "oldest"
	case DeadlineDrop:
		return "deadline"
	}
	return "tail"
}

// Config assembles a Base. All reference fields are required.
type Config struct {
	// ID is the node's address.
	ID frame.NodeID
	// Kernel is the simulation kernel shared by the scenario.
	Kernel *sim.Kernel
	// Medium is the shared radio channel.
	Medium *radio.Medium
	// Clock is the shared superframe clock.
	Clock *superframe.Clock
	// QueueCap bounds the transmit queue (<=0 selects the paper's 8).
	QueueCap int
	// MaxRetries is NR (0 selects DefaultMaxRetries; negative disables
	// retransmissions).
	MaxRetries int
	// Router enables multi-hop forwarding (nil for single-hop scenarios).
	Router Router
	// NeighborStaleAfter bounds how long an overheard queue level stays in
	// the §4.2 neighbour table (0 selects 16 superframes ≈ 2 s). Without
	// expiry a saturated network deadlocks: every node remembers its
	// neighbours' queues as full, the queue difference stays at zero and
	// parameter-based exploration shuts down for everyone at once.
	NeighborStaleAfter sim.Time
	// OnSinkDeliver is invoked for every data frame that reaches its final
	// sink at this node (after duplicate rejection). May be nil.
	OnSinkDeliver func(f *frame.Frame)
	// OnCommand is invoked for every GTS command frame addressed to this
	// node (after duplicate rejection). The dsme package installs it. May be
	// nil.
	OnCommand func(f *frame.Frame)
	// OnOverhear is invoked for every decoded frame regardless of
	// destination, before any other processing. The QMA engine installs it
	// to drive the QBackoff reward (Eq. 6). May be nil.
	OnOverhear func(f *frame.Frame)
	// OnAccept is invoked whenever the transmit queue accepts a frame —
	// including frames the forwarding path enqueues internally. Engines
	// install their channel-access trigger here; without it a node whose
	// queue fills through forwarding alone would never start transmitting.
	// May be nil.
	OnAccept func()
	// FramePool, when non-nil, recycles MAC-owned frames: immediate ACKs
	// are returned to it after their on-air time, forwarded copies are
	// allocated from it, and every data frame is returned when it
	// permanently leaves the transmit queue (acknowledged, dropped after
	// retries, or dropped by CSMA backoff exhaustion). All engines of one
	// kernel may share a pool; it must not cross kernels.
	FramePool *frame.Pool
	// Scratch, when non-nil, slab-allocates this node's hot state (transmit
	// queue buffer, and — via the engines — Q-table, policy and action
	// counters) from a shared per-run arena, so the state of neighbouring
	// nodes is contiguous in memory. All engines of one kernel share one
	// Scratch; it must not cross kernels, and a run arena may be rewound
	// (Scratch.Reset) only after every engine of the previous run is dropped.
	Scratch *Scratch
	// BarringRng drives the node's access-class barring draws
	// (internal/barring). It must be a deterministic stream private to this
	// node. nil — the default — disables the barring gate entirely:
	// AccessBarred returns immediately and never draws, so runs without
	// barring stay byte-identical.
	BarringRng *sim.Rand
	// Drop selects the transmit-queue overflow policy (zero: TailDrop, the
	// pre-existing behaviour).
	Drop DropPolicy
	// SummaryOnly marks a run that collects no per-node results. Engines
	// then skip the instrumentation only those results read (QMA's
	// per-subslot action counters, Fig. 13–15); simulated behaviour is
	// unchanged.
	SummaryOnly bool
	// DropDeadline is the DeadlineDrop age limit (0 selects 16 superframes
	// ≈ 2 s, the neighbour-staleness horizon).
	DropDeadline sim.Time
}

// neighborCacheInvalid marks the cached neighbour mean stale: it lies below
// every reachable cutoff.
const neighborCacheInvalid sim.Time = -1 << 63

type neighborLevel struct {
	level uint8
	at    sim.Time
}

// Base is the shared MAC state machine. It is bound to one kernel and not
// safe for concurrent use.
type Base struct {
	cfg Config

	queue *frame.Queue
	stats Stats

	// busyUntil marks the end of the node's current MAC activity
	// (transmission, CCA, ACK wait or pending immediate ACK). Engines must
	// not start new activity before it passes.
	busyUntil sim.Time

	// The pending ACK wait, inlined: a node has at most one unicast in
	// flight, so the state lives directly in the Base instead of a
	// per-transmission allocation. waiting guards the other four fields.
	waiting   bool
	waitFrom  frame.NodeID
	waitSeq   uint32
	waitTimer sim.EventID
	waitCb    func(success bool)

	// txDone is the pending broadcast-completion event. A node transmits at
	// most one frame at a time, so a single handle suffices; Reboot cancels
	// it so a stale completion cannot fire into a flushed queue.
	txDone sim.EventID

	// ackEvents are the scheduled-but-not-yet-transmitted immediate ACKs,
	// tracked so Reboot can cancel them. Pruned lazily on every sendAck, the
	// slice holds at most a handful of entries.
	ackEvents []sim.EventID

	// downUntil, desyncUntil and ackCorruptUntil carry the fault-injection
	// horizons (internal/faults): while down the node neither transmits nor
	// receives; while desynchronized it receives but does not transmit;
	// while ACKs are corrupted every inbound ACK is dropped undecoded. All
	// three are plain timestamps, so a zero-valued fault schedule costs a
	// few always-false comparisons and changes nothing else.
	downUntil       sim.Time
	desyncUntil     sim.Time
	ackCorruptUntil sim.Time

	// Access-class barring state (internal/barring). barP is the factor the
	// sink last broadcast (1 = fully open), barBackoff the barring backoff
	// that came with it, barUntil the horizon of the node's current barred
	// wait, and barStreak the consecutive failed draws driving the adaptive
	// retry-backoff escalation. All plain values: with cfg.BarringRng nil the
	// gate is a single pointer comparison and the state never changes.
	barP       float64
	barBackoff sim.Time
	barUntil   sim.Time
	barStreak  int

	// neighborQueue holds the most recently overheard queue level per
	// neighbour (piggybacked in every frame, §4.2) with its reception time.
	neighborQueue map[frame.NodeID]neighborLevel

	// neighborMean caches AvgNeighborQueue's last result. It holds while no
	// entry was written since (Deliver and Reboot set neighborOldest to
	// neighborCacheInvalid) and none can have expired: the cutoff is at or
	// below neighborOldest, the oldest retained reception time. A
	// backlogged node reads the mean at every subslot but overhears a frame
	// far less often.
	neighborMean   float64
	neighborOldest sim.Time

	// lastSeq tracks the highest delivered sequence number per origin for
	// duplicate rejection.
	lastSeq map[frame.NodeID]uint32
	hasSeq  map[frame.NodeID]bool

	// Queue-level time integral for the Fig. 8 metric.
	qlIntegralStart sim.Time
	qlLastChange    sim.Time
	qlIntegral      float64

	// ackStartFn/ackDoneFn are long-lived callbacks for the immediate-ACK
	// path, scheduled via Kernel.AtCall so acknowledging costs no closure
	// allocations. ackTimeoutFn plays the same role for the unicast ACK-wait
	// deadline.
	ackStartFn   func(any)
	ackDoneFn    func(any)
	ackTimeoutFn func(any)
}

// NewBase validates cfg and returns a Base.
func NewBase(cfg Config) *Base {
	if cfg.Kernel == nil || cfg.Medium == nil || cfg.Clock == nil {
		panic("mac: Kernel, Medium and Clock are required")
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = DefaultMaxRetries
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	if cfg.NeighborStaleAfter <= 0 {
		cfg.NeighborStaleAfter = 16 * cfg.Clock.Config().SuperframeDuration()
	}
	if cfg.DropDeadline <= 0 {
		cfg.DropDeadline = 16 * cfg.Clock.Config().SuperframeDuration()
	}
	qcap := cfg.QueueCap
	if qcap <= 0 {
		qcap = frame.DefaultQueueCap
	}
	b := &Base{
		cfg:            cfg,
		queue:          frame.NewQueueOn(qcap, cfg.Scratch.Frames(qcap+1)),
		barP:           1,
		neighborQueue:  make(map[frame.NodeID]neighborLevel),
		neighborOldest: neighborCacheInvalid,
		lastSeq:        make(map[frame.NodeID]uint32),
		hasSeq:         make(map[frame.NodeID]bool),
	}
	b.ackStartFn = func(a any) { b.transmitAck(a.(*frame.Frame)) }
	b.ackDoneFn = func(a any) { b.cfg.FramePool.Put(a.(*frame.Frame)) }
	b.ackTimeoutFn = func(a any) { a.(*Base).ackTimeout() }
	return b
}

// ID reports the node address.
func (b *Base) ID() frame.NodeID { return b.cfg.ID }

// Kernel returns the simulation kernel.
func (b *Base) Kernel() *sim.Kernel { return b.cfg.Kernel }

// Medium returns the radio channel.
func (b *Base) Medium() *radio.Medium { return b.cfg.Medium }

// Clock returns the superframe clock.
func (b *Base) Clock() *superframe.Clock { return b.cfg.Clock }

// Queue returns the transmit queue.
func (b *Base) Queue() *frame.Queue { return b.queue }

// Stats returns a copy of the counters.
func (b *Base) Stats() Stats { return b.stats }

// MaxRetries reports the configured NR.
func (b *Base) MaxRetries() int { return b.cfg.MaxRetries }

// Busy reports whether MAC activity is in progress at the current instant.
func (b *Base) Busy() bool { return b.busyUntil > b.cfg.Kernel.Now() }

// BusyUntil reports the end of the current MAC activity.
func (b *Base) BusyUntil() sim.Time { return b.busyUntil }

// ExtendBusy marks the node busy until at least t.
func (b *Base) ExtendBusy(t sim.Time) {
	if t > b.busyUntil {
		b.busyUntil = t
	}
}

// SetDownUntil takes the node completely off the network until t: nothing
// it sends reaches the air (engines still observe ordinary failed-unicast
// timing) and nothing sent to it is received or acknowledged. Fault
// injection for coordinator/sink outages (internal/faults).
func (b *Base) SetDownUntil(t sim.Time) {
	if t > b.downUntil {
		b.downUntil = t
	}
}

// SetDesyncUntil suspends the node's channel access until t: transmissions
// are suppressed, reception stays intact. Fault injection for beacon loss —
// a node without beacon synchronization must not transmit, but its receiver
// keeps listening.
func (b *Base) SetDesyncUntil(t sim.Time) {
	if t > b.desyncUntil {
		b.desyncUntil = t
	}
}

// CorruptAcksUntil drops every inbound acknowledgement undecoded until t:
// transmitters see timeouts and retry even though their data arrived. Fault
// injection for the classic asymmetric ACK-path failure.
func (b *Base) CorruptAcksUntil(t sim.Time) {
	if t > b.ackCorruptUntil {
		b.ackCorruptUntil = t
	}
}

// SetBarring installs the barring factor p and barring backoff the sink
// broadcast in its latest beacon (internal/barring). Engines never call it;
// the scenario's beacon loop pushes the payload into every Base at each
// beacon instant. Without a configured BarringRng the values are stored but
// the gate stays inert.
func (b *Base) SetBarring(p float64, backoff sim.Time) {
	b.barP = p
	b.barBackoff = backoff
}

// BarringFactor reports the barring factor last broadcast to this node
// (1 until the first beacon arrives).
func (b *Base) BarringFactor() float64 { return b.barP }

// barStreakCap bounds the adaptive retry-backoff escalation: sustained
// barring doubles the wait per consecutive failed draw up to 2^barStreakCap
// times the broadcast backoff, so a congested network spreads its retries
// without any node waiting unboundedly long.
const barStreakCap = 3

// AccessBarred applies the access-class barring gate to a new channel-access
// attempt: with probability p (the factor from the latest beacon) access is
// granted; otherwise the attempt is barred and the engine must not touch the
// channel before retryAt. Engines call it at the top of every fresh access
// attempt — retries of an attempt already in flight are not re-gated, which
// mirrors LTE access-class barring (the draw happens per access attempt, not
// per backoff slot).
//
// Cost discipline: with no BarringRng configured (barring disabled) the
// method returns after one nil comparison and draws nothing, so pre-existing
// runs replay byte-identically. While a barred wait is pending, repeated
// calls return the same horizon without drawing, so per-subslot engines can
// poll it freely.
func (b *Base) AccessBarred() (barred bool, retryAt sim.Time) {
	if b.cfg.BarringRng == nil || b.barP >= 1 {
		return false, 0
	}
	now := b.cfg.Kernel.Now()
	if b.barUntil > now {
		return true, b.barUntil
	}
	if b.cfg.BarringRng.Float64() < b.barP {
		b.barStreak = 0
		return false, 0
	}
	b.stats.Barred++
	wait := b.barBackoff
	if wait <= 0 {
		wait = b.cfg.Clock.Config().SuperframeDuration()
	}
	if s := b.barStreak; s > 0 {
		if s > barStreakCap {
			s = barStreakCap
		}
		wait <<= uint(s)
	}
	b.barStreak++
	b.barUntil = now + wait
	return true, b.barUntil
}

// Rebooter is implemented by engines that support the power-cycle fault of
// internal/faults. Reboot must wipe all volatile protocol state — learning
// tables, backoff progress, transaction flags — on top of Base.Reboot, then
// re-enter the engine's startup behaviour. Engines that don't implement it
// still get their shared Base state wiped.
type Rebooter interface {
	Reboot()
}

// Reboot wipes the Base's volatile state as a power cycle would: the
// transmit queue, the pending ACK wait, scheduled immediate ACKs, the
// pending broadcast completion, the neighbour table and the
// duplicate-rejection history. Cancelled outcome callbacks are never
// invoked — the engine above resets its own transaction state in the same
// instant (mac.Rebooter). busyUntil is intentionally preserved: the PHY
// finishes an in-air symbol regardless of what the MCU does. Flushed frames
// are not returned to the frame pool, because the medium or a cancelled
// closure may still reference them; they leak to the garbage collector,
// which is the price of a mid-transaction power cycle, not a steady-state
// cost.
func (b *Base) Reboot() {
	if b.waiting {
		b.waitTimer.Cancel()
		b.waiting = false
		b.waitCb = nil
	}
	b.txDone.Cancel()
	b.txDone = sim.EventID{}
	for _, ev := range b.ackEvents {
		ev.Cancel()
	}
	b.ackEvents = b.ackEvents[:0]
	b.noteQueueChange()
	// Drain by count: a Done callback may legitimately enqueue a fresh
	// frame (e.g. a retried handshake), which the post-reboot node keeps.
	for n := b.queue.Len(); n > 0; n-- {
		f := b.queue.Pop()
		b.signalDone(f, false)
	}
	clear(b.neighborQueue)
	b.neighborOldest = neighborCacheInvalid
	clear(b.lastSeq)
	clear(b.hasSeq)
	// Barring state is volatile too: a freshly booted node has not heard a
	// beacon yet, so it starts fully open and re-learns p at the next one.
	b.barP = 1
	b.barBackoff = 0
	b.barUntil = 0
	b.barStreak = 0
	b.stats.Reboots++
}

// Enqueue implements Engine: it offers f to the transmit queue, tracking the
// queue-level integral and drop counters, and notifies the engine's
// channel-access trigger on acceptance. A full queue first applies the
// configured drop policy (evicting queued frames under DropOldest and
// DeadlineDrop); whatever still does not fit is tail-dropped.
func (b *Base) Enqueue(f *frame.Frame) bool {
	b.noteQueueChange()
	if b.queue.Full() && b.cfg.Drop != TailDrop {
		b.makeRoom()
	}
	if !b.queue.Push(f) {
		b.stats.QueueDrops++
		return false
	}
	b.stats.Enqueued++
	if b.cfg.OnAccept != nil {
		b.cfg.OnAccept()
	}
	return true
}

// makeRoom applies the DropOldest/DeadlineDrop eviction to a full queue.
// Index 0 — the in-service head an engine may be transmitting right now — is
// never evicted, so a queue of capacity 1 degrades to tail-drop. Evicted
// frames leave the MAC permanently: their Done callback fires with failure
// and they return to the frame pool exactly once, like any other drop.
func (b *Base) makeRoom() {
	switch b.cfg.Drop {
	case DropOldest:
		if b.queue.Len() > 1 {
			b.evict(1)
			b.stats.QueueDrops++
		}
	case DeadlineDrop:
		cutoff := b.cfg.Kernel.Now() - b.cfg.DropDeadline
		// Walk back-to-front so removals do not shift unvisited indices.
		for i := b.queue.Len() - 1; i >= 1; i-- {
			if b.queue.At(i).CreatedAt < cutoff {
				b.evict(i)
				b.stats.DeadlineDrops++
			}
		}
	}
}

func (b *Base) evict(i int) {
	f := b.queue.RemoveAt(i)
	b.signalDone(f, false)
	b.cfg.FramePool.Put(f)
}

func (b *Base) noteQueueChange() {
	now := b.cfg.Kernel.Now()
	b.qlIntegral += float64(b.queue.Len()) * float64(now-b.qlLastChange)
	b.qlLastChange = now
}

// AvgQueueLevel reports the time-averaged queue occupancy since the last
// ResetQueueIntegral (Fig. 8 metric).
func (b *Base) AvgQueueLevel() float64 {
	now := b.cfg.Kernel.Now()
	total := float64(now - b.qlIntegralStart)
	if total <= 0 {
		return 0
	}
	integral := b.qlIntegral + float64(b.queue.Len())*float64(now-b.qlLastChange)
	return integral / total
}

// ResetQueueIntegral restarts queue-level averaging at the current instant
// (scenarios call it when the warm-up phase ends).
func (b *Base) ResetQueueIntegral() {
	now := b.cfg.Kernel.Now()
	b.qlIntegral = 0
	b.qlIntegralStart = now
	b.qlLastChange = now
}

// AvgNeighborQueue reports the mean of the recently overheard queue levels
// of all neighbours, 0 when nothing fresh was overheard (§4.2). Entries
// older than NeighborStaleAfter are evicted: silence from a neighbour means
// its advertised queue level is no longer trustworthy, and keeping it would
// freeze parameter-based exploration in a saturated network.
func (b *Base) AvgNeighborQueue() float64 {
	cutoff := b.cfg.Kernel.Now() - b.cfg.NeighborStaleAfter
	if cutoff <= b.neighborOldest {
		return b.neighborMean
	}
	// The levels are uint8, so the sum is exact in any iteration order and
	// the mean is bit-identical from walk to walk.
	var sum float64
	n := 0
	oldest := sim.Never
	for id, l := range b.neighborQueue {
		if l.at < cutoff {
			delete(b.neighborQueue, id)
			continue
		}
		sum += float64(l.level)
		n++
		oldest = min(oldest, l.at)
	}
	b.neighborMean = 0
	if n > 0 {
		b.neighborMean = sum / float64(n)
	}
	b.neighborOldest = oldest
	return b.neighborMean
}

// SendFrame transmits f now at the reference (maximum) power and reports
// the outcome through cb exactly once: immediately after the transmission
// for broadcasts (optimistic, no ACK exists — DESIGN.md §6 deviation 1), or
// after the ACK / ACK timeout for unicasts. It returns the instant the node
// becomes idle again. The caller must ensure the node is not busy and the
// transaction fits in the CAP.
func (b *Base) SendFrame(f *frame.Frame, cb func(success bool)) sim.Time {
	return b.SendFrameAt(f, 0, cb)
}

// SendFrameAt is SendFrame with an explicit transmit power: reduceDB is the
// power reduction below the topology's reference power in dB (0 = reference
// power, the SendFrame default). Power-diverse engines (internal/noma) pick
// the level per transmission; the returning ACK is always sent at reference
// power by the receiver's own Base.
func (b *Base) SendFrameAt(f *frame.Frame, reduceDB float64, cb func(success bool)) sim.Time {
	if b.waiting {
		panic(fmt.Sprintf("mac: node %d sends while awaiting an ACK", b.cfg.ID))
	}
	ql := b.queue.Len()
	if ql > 255 {
		ql = 255
	}
	f.QueueLevel = uint8(ql)
	b.stats.TxAttempts++
	now := b.cfg.Kernel.Now()
	if b.downUntil > now || b.desyncUntil > now {
		return b.suppressTX(f, cb)
	}
	txEnd := b.cfg.Medium.StartTX(b.cfg.ID, f, reduceDB)
	if f.IsBroadcast() {
		b.ExtendBusy(txEnd)
		// Broadcast completions keep a per-call closure: a node may start its
		// next transmission at the very instant a broadcast ends (the tick
		// fires first at that boundary), so the callback context must be
		// frozen per transmission. Broadcasts are rare (beacons, GTS control)
		// — the allocation is off the hot path.
		b.txDone = b.cfg.Kernel.At(txEnd, func() {
			b.stats.TxSuccess++
			cb(true)
		})
		return txEnd
	}
	deadline := txEnd + frame.AckWait
	b.ExtendBusy(deadline)
	b.waiting = true
	b.waitFrom, b.waitSeq, b.waitCb = f.Dst, f.Seq, cb
	b.waitTimer = b.cfg.Kernel.AtCall(deadline, b.ackTimeoutFn, b)
	return deadline
}

// ackTimeout fires when a unicast's ACK-wait deadline passes unanswered.
func (b *Base) ackTimeout() {
	cb := b.waitCb
	b.waiting = false
	b.waitCb = nil
	b.stats.TxFail++
	cb(false)
}

// suppressTX mimics the exact timing of a transmission whose frame reached
// nobody, without touching the medium: the node is down or has lost beacon
// synchronization, so nothing goes on the air, but the engine above sees
// the ordinary failed-unicast (or completed-broadcast) sequence and runs
// its unmodified retry logic.
func (b *Base) suppressTX(f *frame.Frame, cb func(success bool)) sim.Time {
	b.stats.FaultTxSuppressed++
	txEnd := b.cfg.Kernel.Now() + f.Duration()
	if f.IsBroadcast() {
		b.ExtendBusy(txEnd)
		b.txDone = b.cfg.Kernel.At(txEnd, func() {
			b.stats.TxSuccess++
			cb(true)
		})
		return txEnd
	}
	deadline := txEnd + frame.AckWait
	b.ExtendBusy(deadline)
	b.waiting = true
	b.waitFrom, b.waitSeq, b.waitCb = f.Dst, f.Seq, cb
	b.waitTimer = b.cfg.Kernel.AtCall(deadline, b.ackTimeoutFn, b)
	return deadline
}

// FinishFrame applies the retry policy after a unicast data outcome: on
// success the frame is removed from the queue; on failure it is retried
// until MaxRetries is exhausted, then dropped. It reports whether the frame
// left the queue. The frame must be the queue head.
func (b *Base) FinishFrame(f *frame.Frame, success bool) (done bool) {
	if b.queue.Head() != f {
		panic(fmt.Sprintf("mac: node %d finishes a frame that is not the queue head", b.cfg.ID))
	}
	if success {
		b.noteQueueChange()
		b.queue.Pop()
		b.signalDone(f, true)
		b.cfg.FramePool.Put(f)
		return true
	}
	f.Retries++
	if int(f.Retries) > b.cfg.MaxRetries {
		b.noteQueueChange()
		b.queue.Pop()
		b.stats.RetryDrops++
		b.signalDone(f, false)
		b.cfg.FramePool.Put(f)
		return true
	}
	return false
}

func (b *Base) signalDone(f *frame.Frame, success bool) {
	if f.Done != nil {
		cb := f.Done
		f.Done = nil
		cb(success)
	}
}

// DropCSMAFailure removes the queue head after a channel-access failure
// (macMaxCSMABackoffs exceeded). Only the CSMA engines call it.
func (b *Base) DropCSMAFailure(f *frame.Frame) {
	if b.queue.Head() != f {
		panic(fmt.Sprintf("mac: node %d CSMA-drops a frame that is not the queue head", b.cfg.ID))
	}
	b.noteQueueChange()
	b.queue.Pop()
	b.stats.CSMAFails++
	b.signalDone(f, false)
	b.cfg.FramePool.Put(f)
}

// Deliver implements radio.Handler: the shared receive path. Every decoded
// frame feeds the overhear hook and the neighbour queue-level table; frames
// addressed to this node are acknowledged, de-duplicated and handed to the
// sink, forwarding or command paths.
func (b *Base) Deliver(f *frame.Frame) {
	now := b.cfg.Kernel.Now()
	if b.downUntil > now {
		// Outage: the receiver is off. Nothing is decoded, overheard or
		// acknowledged (fault injection, internal/faults).
		b.stats.FaultRxDropped++
		return
	}
	if f.Kind == frame.Ack && b.ackCorruptUntil > now {
		// ACK-corruption window: the ACK arrives as noise, invisible even to
		// the overhear hook.
		b.stats.AcksCorrupted++
		return
	}
	if b.cfg.OnOverhear != nil {
		b.cfg.OnOverhear(f)
	}
	if f.Kind != frame.Ack && f.Src != b.cfg.ID {
		b.neighborQueue[f.Src] = neighborLevel{level: f.QueueLevel, at: now}
		b.neighborOldest = neighborCacheInvalid
	}

	switch {
	case f.Kind == frame.Ack:
		if f.Dst == b.cfg.ID {
			b.handleAck(f)
		}
	case f.Dst == b.cfg.ID:
		b.handleUnicast(f)
	case f.IsBroadcast():
		b.handleBroadcast(f)
	}
}

func (b *Base) handleAck(f *frame.Frame) {
	if !b.waiting || b.waitFrom != f.Src || b.waitSeq != f.Seq {
		return
	}
	cb := b.waitCb
	b.waiting = false
	b.waitCb = nil
	b.waitTimer.Cancel()
	b.stats.TxSuccess++
	cb(true)
}

func (b *Base) handleUnicast(f *frame.Frame) {
	// Immediate acknowledgement after aTurnaroundTime. The ACK occupies the
	// medium like any frame, which is what makes the hidden-node CCA of the
	// paper's Fig. 6 occasionally fail at A and C.
	b.sendAck(f)

	if b.isDuplicate(f) {
		b.stats.Duplicates++
		return
	}
	switch f.Kind {
	case frame.Data:
		b.acceptData(f)
	case frame.GTSRequest:
		if b.cfg.OnCommand != nil {
			b.cfg.OnCommand(f)
		}
	}
}

func (b *Base) handleBroadcast(f *frame.Frame) {
	switch f.Kind {
	case frame.GTSResponse, frame.GTSNotify:
		if b.cfg.OnCommand != nil {
			b.cfg.OnCommand(f)
		}
	case frame.Data:
		b.acceptData(f)
	}
}

func (b *Base) acceptData(f *frame.Frame) {
	if f.Sink == b.cfg.ID || f.IsBroadcast() {
		b.stats.Delivered++
		if b.cfg.OnSinkDeliver != nil {
			b.cfg.OnSinkDeliver(f)
		}
		return
	}
	if b.cfg.Router == nil {
		return
	}
	next, ok := b.cfg.Router.NextHop(b.cfg.ID, f.Sink)
	if !ok {
		return
	}
	fwd := b.cfg.FramePool.Get()
	fwd.Kind = frame.Data
	fwd.Src = b.cfg.ID
	fwd.Dst = next
	fwd.Origin = f.Origin
	fwd.Sink = f.Sink
	fwd.Seq = f.Seq
	fwd.MPDUBytes = f.MPDUBytes
	fwd.Tag = f.Tag
	fwd.CreatedAt = f.CreatedAt
	if b.Enqueue(fwd) {
		b.stats.Forwarded++
	} else {
		b.cfg.FramePool.Put(fwd)
	}
}

func (b *Base) isDuplicate(f *frame.Frame) bool {
	if b.hasSeq[f.Origin] && f.Seq <= b.lastSeq[f.Origin] {
		return true
	}
	b.hasSeq[f.Origin] = true
	b.lastSeq[f.Origin] = f.Seq
	return false
}

func (b *Base) sendAck(f *frame.Frame) {
	now := b.cfg.Kernel.Now()
	ackStart := now + frame.TurnaroundTime
	ack := b.cfg.FramePool.Get()
	ack.Kind = frame.Ack
	ack.Src = b.cfg.ID
	ack.Dst = f.Src
	ack.Origin = b.cfg.ID
	ack.Sink = f.Src
	ack.Seq = f.Seq
	ack.MPDUBytes = frame.AckMPDUBytes
	ack.Channel = f.Channel
	b.ExtendBusy(ackStart + frame.AckDuration)
	b.trackAck(b.cfg.Kernel.AtCall(ackStart, b.ackStartFn, ack))
}

// trackAck remembers a scheduled immediate-ACK event so Reboot can cancel
// it, lazily pruning entries that already fired. A node rarely owes more
// than one ACK at a time, so the prune is O(1) in practice and the slice
// never regrows after warm-up.
func (b *Base) trackAck(ev sim.EventID) {
	n := 0
	for _, e := range b.ackEvents {
		if e.Pending() {
			b.ackEvents[n] = e
			n++
		}
	}
	b.ackEvents = append(b.ackEvents[:n], ev)
}

// transmitAck puts a prepared immediate ACK on the air and arranges its
// return to the frame pool once the transmission (and therefore delivery,
// which the medium performs first at the same instant) has ended.
func (b *Base) transmitAck(ack *frame.Frame) {
	// Skip the ACK if the node somehow started transmitting meanwhile
	// (cannot normally happen: a node transmitting during the reception
	// would have corrupted it), or if an outage began in the turnaround gap
	// — a down node stays silent.
	if b.cfg.Medium.Transmitting(b.cfg.ID) || b.downUntil > b.cfg.Kernel.Now() {
		b.cfg.FramePool.Put(ack)
		return
	}
	b.stats.AcksSent++
	txEnd := b.cfg.Medium.StartTX(b.cfg.ID, ack, 0)
	b.cfg.Kernel.AtCall(txEnd, b.ackDoneFn, ack)
}
