package core

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/sim"
)

// Config assembles a QMA engine.
type Config struct {
	// MAC configures the shared MAC base (node id, kernel, medium, clock,
	// queue, routing). Config.OnOverhear is owned by the engine and must be
	// nil.
	MAC mac.Config
	// Table is the Q-value storage. Nil selects a float64 table with Learn
	// parameters; pass a FixedTable or QuantTable for the embedded variants.
	Table qlearn.Table
	// Learn are the hyperparameters used when Table is nil (zero value
	// selects qlearn.DefaultParams).
	Learn qlearn.Params
	// Explorer decides the exploration rate ρ. Nil selects the paper's
	// parameter-based strategy (Fig. 4 table).
	Explorer qlearn.Explorer
	// Rng drives exploration decisions; required.
	Rng *sim.Rand
	// StartupSubslots is Δ, the number of subslots of cautious startup
	// (§4.3). 0 selects the default of two full frames; negative disables
	// cautious startup.
	StartupSubslots int
	// StartupPunish applies the §4.3 punishments to QCCA/QSend for subslots
	// with overheard traffic. NewFromOptions enables it unless
	// Options.DisableStartupPunish is set.
	StartupPunish bool
	// ReevalOnDecay is the ablation switch forwarded to the learner.
	ReevalOnDecay bool
}

// Stats aggregates QMA-specific counters on top of the shared mac.Stats.
type Stats struct {
	// ActionCount counts executed actions by type (exploration and policy).
	ActionCount [NumActions]uint64
	// Explorations counts randomly selected actions.
	Explorations uint64
	// Decisions counts Algorithm 1 invocations (subslots with a non-empty
	// queue after startup).
	Decisions uint64
	// Deferrals counts transmissions postponed because the transaction did
	// not fit into the remaining CAP.
	Deferrals uint64
	// StartupObservations counts cautious-startup subslot observations.
	StartupObservations uint64
}

// pending tracks an action whose reward is not yet known (the paper saves
// state and action until the outcome is observable, §4).
type pending struct {
	subslot int
	action  Action
	startup bool
}

// Engine is one node's QMA MAC. It is driven entirely by its kernel; after
// Start it needs no external calls besides Enqueue.
type Engine struct {
	base *mac.Base

	learner  *qlearn.Learner
	explorer qlearn.Explorer
	// rhoTable is explorer as its concrete type when it is the default
	// parameter-based strategy, so decide looks ρ up without interface
	// dispatch; nil for any other Explorer.
	rhoTable *qlearn.ParameterBased
	rng      *sim.Rand

	startupLeft   int
	startupInit   int
	startupPunish bool

	armed sim.EventID
	// armedAt/armedSubslot remember the boundary the ticker is armed for, so
	// the per-tick re-arm advances incrementally (Clock.NextBoundary) instead
	// of re-deriving the position with divisions. armedSubslot is -1 when no
	// boundary has been derived yet (fresh or rebooted engine).
	armedAt      sim.Time
	armedSubslot int

	// pend is the action whose reward window is open; hasPend guards it.
	// Inlined so a backoff decision costs no allocation.
	pend     pending
	hasPend  bool
	overhear bool

	// In-flight CCA state, inlined for the same reason: a node runs at most
	// one CCA at a time (it is busy for the whole window and the completion
	// fires strictly before the next boundary), so the subslot/epoch live in
	// the engine and the kernel callback is the long-lived engineCCA.
	ccaSubslot int
	ccaEpoch   uint32

	// epoch counts power-cycle faults (mac.Rebooter). Kernel callbacks that
	// outlive a reboot — the CCA completion — record the epoch they were
	// scheduled under and become no-ops when it has moved on.
	epoch uint32

	stats Stats

	// rhoSum/rhoCount accumulate exploration rates between TakeRhoSample
	// calls (Fig. 11 instrumentation).
	rhoSum   float64
	rhoCount int

	// actionCounts[s*NumActions+a] counts executed actions per subslot since
	// the last ResetActionCounts (Fig. 13–15 slot-utilization
	// instrumentation). Stored flat so it can live in the run arena next to
	// the node's Q-table; nil in a summary-only run (mac.Config.SummaryOnly),
	// which reads no per-node results.
	actionCounts []uint64
}

var _ mac.Engine = (*Engine)(nil)

// New assembles an engine from cfg. It panics on an invalid configuration;
// scenario builders construct engines at assembly time.
func New(cfg Config) *Engine {
	if cfg.Rng == nil {
		panic("core: Rng is required")
	}
	if cfg.MAC.OnOverhear != nil || cfg.MAC.OnAccept != nil {
		panic("core: MAC.OnOverhear and MAC.OnAccept are owned by the engine")
	}
	if cfg.MAC.Clock == nil {
		panic("core: MAC.Clock is required")
	}
	subslots := cfg.MAC.Clock.Config().Subslots
	scratch := cfg.MAC.Scratch
	table := cfg.Table
	if table == nil {
		p := cfg.Learn
		if p == (qlearn.Params{}) {
			p = qlearn.DefaultParams()
		}
		table = qlearn.NewFloatTableOn(subslots, NumActions, p,
			scratch.Float64s(subslots*NumActions))
	}
	if table.States() != subslots || table.Actions() != NumActions {
		panic(fmt.Sprintf("core: table dimensions %dx%d, want %dx%d",
			table.States(), table.Actions(), subslots, NumActions))
	}
	explorer := cfg.Explorer
	if explorer == nil {
		explorer = qlearn.NewParameterBased()
	}
	switch {
	case cfg.StartupSubslots == 0:
		cfg.StartupSubslots = 2 * subslots
	case cfg.StartupSubslots < 0:
		cfg.StartupSubslots = 0
	}

	e := &Engine{
		learner:       qlearn.NewLearnerOn(table, int(QBackoff), scratch.Uint8s(subslots)),
		explorer:      explorer,
		rng:           cfg.Rng,
		startupLeft:   cfg.StartupSubslots,
		startupInit:   cfg.StartupSubslots,
		startupPunish: cfg.StartupPunish,
		armedSubslot:  -1,
	}
	e.rhoTable, _ = explorer.(*qlearn.ParameterBased)
	if !cfg.MAC.SummaryOnly {
		e.actionCounts = scratch.Uint64s(subslots * NumActions)
	}
	e.learner.SetReevalOnDecay(cfg.ReevalOnDecay)
	cfg.MAC.OnOverhear = e.onOverhear
	cfg.MAC.OnAccept = e.arm
	e.base = mac.NewBase(cfg.MAC)
	return e
}

// Learner exposes the Q-learning state for instrumentation and tests.
func (e *Engine) Learner() *qlearn.Learner { return e.learner }

// EngineStats returns a copy of the QMA-specific counters.
func (e *Engine) EngineStats() Stats { return e.stats }

// Base implements mac.Engine.
func (e *Engine) Base() *mac.Base { return e.base }

// Deliver implements radio.Handler by delegating to the shared receive path.
func (e *Engine) Deliver(f *frame.Frame) { e.base.Deliver(f) }

// Start implements mac.Engine: it arms the subslot ticker.
func (e *Engine) Start() { e.arm() }

// Enqueue implements mac.Engine, re-arming the ticker when traffic arrives.
func (e *Engine) Enqueue(f *frame.Frame) bool {
	ok := e.base.Enqueue(f)
	if ok {
		e.arm()
	}
	return ok
}

// CumulativePolicyQ reports Σ_m Q(m, π(m)), the Fig. 10 / Fig. 12 stability
// metric.
func (e *Engine) CumulativePolicyQ() float64 { return e.learner.CumulativePolicyQ() }

// TakeRhoSample reports the mean exploration rate ρ over all decisions since
// the previous call (Fig. 11 instrumentation) and the number of decisions it
// averages over.
func (e *Engine) TakeRhoSample() (mean float64, n int) {
	n = e.rhoCount
	if n > 0 {
		mean = e.rhoSum / float64(n)
	}
	e.rhoSum, e.rhoCount = 0, 0
	return mean, n
}

// ActionCounts returns a copy of the per-subslot action counters (Fig. 13–15
// slot utilization); empty in a summary-only run.
func (e *Engine) ActionCounts() [][NumActions]uint64 {
	out := make([][NumActions]uint64, len(e.actionCounts)/NumActions)
	for s := range out {
		copy(out[s][:], e.actionCounts[s*NumActions:(s+1)*NumActions])
	}
	return out
}

// ResetActionCounts clears the per-subslot action counters.
func (e *Engine) ResetActionCounts() {
	clear(e.actionCounts)
}

// Reboot implements mac.Rebooter: a power-cycle fault wipes everything a
// real node keeps in RAM — the Q-table and policy, the pending reward
// window, cautious-startup progress and the shared MAC state — and restarts
// the engine as a freshly joined node (full cautious startup). The
// instrumentation counters (stats, action counts) survive: they are
// measurement infrastructure, not node state, and the relearning cost the
// faults experiments report depends on seeing across the reboot.
func (e *Engine) Reboot() {
	e.base.Reboot()
	e.armed.Cancel()
	e.armed = sim.EventID{}
	e.armedAt = 0
	e.armedSubslot = -1
	e.hasPend = false
	e.overhear = false
	e.startupLeft = e.startupInit
	e.learner.Reset(int(QBackoff))
	e.rhoSum, e.rhoCount = 0, 0
	e.epoch++
	e.arm()
}

// engineTick and engineCCA are the long-lived kernel callbacks of every QMA
// engine; per-event context rides in the engine itself, so arming a tick or
// finishing a CCA performs no allocation.
func engineTick(a any) { a.(*Engine).tick() }
func engineCCA(a any)  { a.(*Engine).ccaDone() }

// arm schedules the next subslot tick unless one is already scheduled. When
// called from the tick itself (now is exactly the armed boundary) the next
// boundary follows incrementally, with no division.
func (e *Engine) arm() {
	now := e.base.Kernel().Now()
	if e.armed.Pending() && e.armed.At() > now {
		return
	}
	var next sim.Time
	var idx int
	if now == e.armedAt && e.armedSubslot >= 0 {
		next, idx = e.base.Clock().NextBoundary(now, e.armedSubslot)
	} else {
		next = e.base.Clock().NextSubslotStart(now)
		idx = e.base.Clock().Subslot(next)
	}
	e.armed = e.base.Kernel().AtCall(next, engineTick, e)
	e.armedAt, e.armedSubslot = next, idx
}

// needTick reports whether the engine has any reason to observe the next
// subslot boundary.
func (e *Engine) needTick() bool {
	return e.hasPend || e.startupLeft > 0 || !e.base.Queue().Empty() || e.base.Busy()
}

// tick runs at every subslot boundary while the engine is active. It first
// evaluates a pending backoff-type action (QEvaluation in Fig. 2), then
// makes the next decision (QDecision).
func (e *Engine) tick() {
	// The armed bookkeeping usually knows this boundary's subslot index
	// already, saving the division in Subslot. It cannot be trusted blindly:
	// an Enqueue arriving at the very instant this tick fires (but before it
	// runs) re-arms the NEXT boundary and clobbers armedSubslot, so the
	// cached index is only valid while armedAt still equals now.
	now := e.base.Kernel().Now()
	var m int
	if now == e.armedAt && e.armedSubslot >= 0 {
		m = e.armedSubslot
	} else {
		m = e.base.Clock().Subslot(now)
	}
	if m < 0 {
		// Boundary fell outside the CAP (cannot happen with valid subslot
		// boundaries, but guard against clock misconfiguration).
		e.armIfNeeded()
		return
	}

	if e.hasPend {
		e.evaluateBackoff(m)
	}

	switch {
	case e.base.Busy():
		// A transmission, ACK wait or ACK duty is in progress; the outcome
		// callback performs the Q-update.
	case e.startupLeft > 0:
		e.startupObserve(m)
	case e.base.Queue().Empty():
		// "If no more packets are available for transmission, no action is
		// selected" (§6.1.3).
	default:
		// Access-class barring gates every fresh channel-access decision: a
		// barred node sits the subslot out, the ticker keeps polling (free
		// while the barring backoff runs) and a fresh Bernoulli draw happens
		// once it has passed.
		if barred, _ := e.base.AccessBarred(); !barred {
			e.decide(m)
		}
	}
	e.armIfNeeded()
}

func (e *Engine) armIfNeeded() {
	if e.needTick() {
		e.arm()
	}
}

// evaluateBackoff finalizes a QBackoff (or cautious-startup observation)
// whose reward window just closed. nextSubslot is the subslot the agent
// arrived in.
func (e *Engine) evaluateBackoff(nextSubslot int) {
	p := e.pend
	e.hasPend = false
	reward := float64(RewardBackoffIdle)
	if e.overhear {
		reward = RewardBackoffOverhear
	}
	e.learner.Observe(p.subslot, int(QBackoff), reward, nextSubslot)
	if p.startup && e.startupPunish && e.overhear {
		// Mark the subslot as foreign-owned in the QCCA and QSend rows too,
		// biasing the node against claiming it (§4.3).
		e.learner.Observe(p.subslot, int(QCCA), StartupPunishCCA, nextSubslot)
		e.learner.Observe(p.subslot, int(QSend), StartupPunishSend, nextSubslot)
	}
	e.overhear = false
}

// startupObserve performs one cautious-startup subslot: QBackoff only.
func (e *Engine) startupObserve(m int) {
	e.startupLeft--
	e.stats.StartupObservations++
	e.pend = pending{subslot: m, action: QBackoff, startup: true}
	e.hasPend = true
	e.overhear = false
}

// decide runs one Algorithm 1 step at subslot m.
func (e *Engine) decide(m int) {
	e.stats.Decisions++
	ctx := qlearn.ExploreContext{
		Now:              e.base.Kernel().Now(),
		QueueLevel:       e.base.Queue().Len(),
		AvgNeighborQueue: e.base.AvgNeighborQueue(),
	}
	var rho float64
	if e.rhoTable != nil {
		rho = e.rhoTable.Rate(ctx)
	} else {
		rho = e.explorer.Rate(ctx)
	}
	e.rhoSum += rho
	e.rhoCount++

	var action Action
	if e.rng.Float64() < rho {
		action = Action(e.rng.Intn(NumActions))
		e.stats.Explorations++
	} else {
		action = Action(e.learner.Policy(m))
	}
	e.execute(m, action)
}

// execute performs the selected action.
func (e *Engine) execute(m int, action Action) {
	e.stats.ActionCount[action]++
	if e.actionCounts != nil {
		e.actionCounts[m*NumActions+int(action)]++
	}
	switch action {
	case QBackoff:
		e.pend = pending{subslot: m, action: QBackoff}
		e.hasPend = true
		e.overhear = false
	case QCCA:
		e.startCCA(m)
	case QSend:
		e.startTX(m, QSend)
	}
}

// startCCA samples the channel at the end of the 8-symbol CCA window, so
// that a QSend started at the same boundary is visible to it. At most one
// CCA is in flight per node (the node is busy for the window), so its
// context lives inline in the engine.
func (e *Engine) startCCA(m int) {
	now := e.base.Kernel().Now()
	e.base.ExtendBusy(now + frame.CCADuration)
	e.ccaSubslot = m
	e.ccaEpoch = e.epoch
	e.base.Kernel().AtCall(now+frame.CCADuration, engineCCA, e)
}

// ccaDone completes the CCA window armed by startCCA.
func (e *Engine) ccaDone() {
	if e.epoch != e.ccaEpoch {
		// A reboot fault struck mid-CCA; the continuation belongs to the
		// previous life of this node.
		return
	}
	if !e.base.Medium().CCA(e.base.ID()) {
		// Channel busy: reward 1 and back off to the next subslot
		// (Eq. 7, the QCCA(fail) edge of Fig. 3).
		next := e.nextDecisionSubslot()
		e.learner.Observe(e.ccaSubslot, int(QCCA), RewardCCABusy, next)
		return
	}
	e.startTX(e.ccaSubslot, QCCA)
}

// startTX transmits the queue head (for QCCA the CCA window has already
// elapsed, so the transmission starts 8 symbols into the subslot).
func (e *Engine) startTX(m int, action Action) {
	f := e.base.Queue().Head()
	if f == nil {
		// The queue drained while the CCA ran (cannot currently happen: the
		// head is only removed by outcomes, and no outcome can interleave
		// with a CCA). Treat as a no-op.
		return
	}
	now := e.base.Kernel().Now()
	cost := f.Duration()
	if !f.IsBroadcast() {
		cost += frame.AckWait
	}
	if !e.base.Clock().FitsInCAP(now, cost) {
		// Defer to the next CAP without a Q-update (802.15.4 rule: the
		// transaction must complete before the CAP ends; DESIGN.md §6).
		e.stats.Deferrals++
		return
	}
	// The outcome callback keeps a per-transmission closure: when a
	// transmission ends exactly on a subslot boundary whose tick precedes the
	// completion event, the engine can start the next transaction before the
	// previous outcome fires, so the (m, action, f) context must be frozen
	// per call. Transmissions are orders of magnitude rarer than ticks — the
	// allocation is off the hot path.
	e.base.SendFrame(f, func(success bool) {
		e.finishTX(m, action, f, success)
	})
}

// finishTX applies the Eq. 7/8 reward once the outcome of a transmission is
// known, then lets the retry policy decide the frame's fate.
func (e *Engine) finishTX(m int, action Action, f *frame.Frame, success bool) {
	var reward float64
	if action == QSend {
		if success {
			reward = RewardSendSuccess
		} else {
			reward = RewardSendFail
		}
	} else {
		if success {
			reward = RewardCCASuccessTx
		} else {
			reward = RewardCCAFailedTx
		}
	}
	next := e.nextDecisionSubslot()
	e.learner.Observe(m, int(action), reward, next)
	e.base.FinishFrame(f, success)
	e.armIfNeeded()
}

// nextDecisionSubslot reports the subslot of the first boundary at which the
// agent can act again — the successor state m_{t+i} of Algorithm 1.
func (e *Engine) nextDecisionSubslot() int {
	return e.base.Clock().Subslot(e.base.Clock().NextSubslotStart(e.base.Kernel().Now()))
}

// onOverhear is installed as the MAC overhear hook: any decoded DATA, ACK or
// command frame marks the current backoff window as "subslot in use"
// (Eq. 6). Beacons are infrastructure and do not count.
func (e *Engine) onOverhear(f *frame.Frame) {
	if f.Kind == frame.Beacon {
		return
	}
	if e.hasPend {
		e.overhear = true
	}
}
