// Package noma implements a NOMA-flavoured power-level Q-learning MAC: QMA's
// per-subslot channel access algorithm (internal/core) with the action space
// extended by a transmit-power dimension, the direction of the multi-power
// level Q-learning line of work for NOMA mMTC random access
// (arXiv:2301.05196) applied to QMA's slot structure.
//
// Each node learns over the cross product of QMA's three actions — backoff,
// CCA-then-send, send — and K discrete power levels (level ℓ transmits
// ℓ·LevelStepDB dB below the reference power). On a capture-enabled medium
// (radio.Medium.SetCaptureThreshold) two deliberately different power levels
// can share a subslot: the strong frame decodes through SINR capture while
// the weak one fails softly. The reward function is power-aware in both
// directions:
//
//   - Success at a reduced level earns a bonus on top of QMA's Eq. 7/8
//     rewards (succeeding with less power is strictly better: it spends less
//     energy and leaves headroom under the capture threshold for a
//     neighbour).
//   - A failed transmission during whose ACK wait a foreign ACK was
//     overheard is rewarded RewardCapturedOver instead of the full collision
//     punishment: the overheard ACK is the transmitter-side evidence that
//     the subslot carried a completed (captured) transaction rather than a
//     mutual kill, so the subslot remains worth contesting at a different
//     power level. This is the observable proxy for "my frame was captured
//     over" — the transmitter cannot see the receiver-side SINR directly.
//
// Everything below channel access — queues, ACKs, retries, forwarding — is
// the shared mac.Base, so comparisons against QMA and CSMA/CA isolate the
// access discipline, exactly like the other protocol packages. With K=1 the
// action space degenerates to QMA's three actions (plus the captured-over
// reward shaping).
package noma

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/sim"
)

// Kind is one of QMA's three channel access action kinds; the full NOMA
// action is a (Kind, level) pair flattened into kind·K + level.
type Kind uint8

const (
	// Backoff waits for the next subslot.
	Backoff Kind = iota
	// CCA performs a clear channel assessment and transmits on idle.
	CCA
	// Send transmits immediately.
	Send
	// NumKinds is the number of action kinds.
	NumKinds = 3
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Backoff:
		return "Backoff"
	case CCA:
		return "CCA"
	case Send:
		return "Send"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Reward shaping on top of QMA's Eq. 6–8 values (internal/core). The base
// rewards are duplicated here rather than imported so the two protocols stay
// independently tunable.
const (
	// RewardBackoffOverhear / RewardBackoffIdle are QMA's Eq. 6.
	RewardBackoffOverhear = 2
	RewardBackoffIdle     = 0
	// RewardCCASuccessTx / RewardCCAFailedTx / RewardCCABusy are Eq. 7.
	RewardCCASuccessTx = 3
	RewardCCAFailedTx  = -2
	RewardCCABusy      = 1
	// RewardSendSuccess / RewardSendFail are Eq. 8.
	RewardSendSuccess = 4
	RewardSendFail    = -3
	// RewardCapturedOver replaces the failure punishment when a foreign ACK
	// was overheard during the ACK wait: the slot completed a transaction
	// for someone (capture), so the failure is contention lost, not a
	// destroyed subslot.
	RewardCapturedOver = -1
	// LevelSuccessBonus is added per power level on success: succeeding
	// ℓ levels below the reference power earns ℓ·LevelSuccessBonus extra.
	LevelSuccessBonus = 0.5
	// StartupPunishCCA / StartupPunishSend are QMA's §4.3 cautious-startup
	// punishments, applied to every power level of the subslot.
	StartupPunishCCA  = -2
	StartupPunishSend = -3
)

// Defaults for the power dimension.
const (
	// DefaultLevels is K, the number of power levels.
	DefaultLevels = 2
	// MaxLevels bounds K: with the default 6 dB step, 4 levels span 18 dB —
	// about the programmable range of the AT86RF231 (+3 to −17 dBm).
	MaxLevels = 4
	// DefaultLevelStepDB is the power reduction per level.
	DefaultLevelStepDB = 6.0
)

// Config assembles a NOMA engine.
type Config struct {
	// MAC configures the shared MAC base. OnOverhear and OnAccept are owned
	// by the engine and must be nil.
	MAC mac.Config
	// Levels is K (0 selects DefaultLevels).
	Levels int
	// LevelStepDB is the dB reduction per level (0 selects the default).
	LevelStepDB float64
	// Table is the Q-value storage over subslots × (NumKinds·Levels)
	// actions. Nil selects a float64 table with Learn parameters.
	Table qlearn.Table
	// Learn are the hyperparameters used when Table is nil (zero value
	// selects qlearn.DefaultParams).
	Learn qlearn.Params
	// Explorer decides the exploration rate ρ. Nil selects the paper's
	// parameter-based strategy.
	Explorer qlearn.Explorer
	// Rng drives exploration decisions; required.
	Rng *sim.Rand
	// StartupSubslots is Δ, the cautious-startup window (§4.3). 0 selects
	// the default of two full frames; negative disables it.
	StartupSubslots int
	// StartupPunish applies the §4.3 punishments (all power levels of the
	// CCA and Send kinds) to subslots with overheard traffic.
	StartupPunish bool
}

// Stats aggregates NOMA-specific counters on top of the shared mac.Stats.
type Stats struct {
	// KindCount counts executed actions by kind.
	KindCount [NumKinds]uint64
	// LevelCount counts executed CCA/Send actions by power level.
	LevelCount []uint64
	// SuccessByLevel counts acknowledged transmissions by power level.
	SuccessByLevel []uint64
	// Explorations counts randomly selected actions.
	Explorations uint64
	// Decisions counts decision-step invocations.
	Decisions uint64
	// Deferrals counts transmissions postponed past the CAP end.
	Deferrals uint64
	// StartupObservations counts cautious-startup subslot observations.
	StartupObservations uint64
	// CapturedOver counts failed transmissions whose punishment was softened
	// to RewardCapturedOver because a foreign ACK was overheard during the
	// ACK wait.
	CapturedOver uint64
}

// pending tracks a backoff-type action whose reward window is open.
type pending struct {
	subslot int
	action  int
	startup bool
}

// Engine is one node's NOMA power-level Q-learning MAC.
type Engine struct {
	base *mac.Base

	learner  *qlearn.Learner
	explorer qlearn.Explorer
	rng      *sim.Rand

	levels  int
	stepDB  float64
	actions int // NumKinds * levels

	startupLeft   int
	startupInit   int
	startupPunish bool

	armed    sim.EventID
	pend     *pending
	overhear bool

	// epoch counts power-cycle faults (mac.Rebooter); see core.Engine.
	epoch uint32

	// txWaiting/foreignAck implement the captured-over detection: foreignAck
	// records whether an ACK addressed to another node was overheard while
	// this node's own ACK wait was open.
	txWaiting  bool
	foreignAck bool

	stats Stats
}

var _ mac.Engine = (*Engine)(nil)

// New assembles an engine from cfg. It panics on an invalid configuration;
// scenario builders construct engines at assembly time.
func New(cfg Config) *Engine {
	if cfg.Rng == nil {
		panic("noma: Rng is required")
	}
	if cfg.MAC.OnOverhear != nil || cfg.MAC.OnAccept != nil {
		panic("noma: MAC.OnOverhear and MAC.OnAccept are owned by the engine")
	}
	if cfg.MAC.Clock == nil {
		panic("noma: MAC.Clock is required")
	}
	if cfg.Levels == 0 {
		cfg.Levels = DefaultLevels
	}
	if cfg.Levels < 1 || cfg.Levels > MaxLevels {
		panic(fmt.Sprintf("noma: Levels=%d out of [1,%d]", cfg.Levels, MaxLevels))
	}
	if cfg.LevelStepDB == 0 {
		cfg.LevelStepDB = DefaultLevelStepDB
	}
	if cfg.LevelStepDB < 0 {
		panic(fmt.Sprintf("noma: LevelStepDB=%v must be positive", cfg.LevelStepDB))
	}
	subslots := cfg.MAC.Clock.Config().Subslots
	actions := NumKinds * cfg.Levels
	table := cfg.Table
	if table == nil {
		p := cfg.Learn
		if p == (qlearn.Params{}) {
			p = qlearn.DefaultParams()
		}
		table = qlearn.NewFloatTableOn(subslots, actions, p,
			cfg.MAC.Scratch.Float64s(subslots*actions))
	}
	if table.States() != subslots || table.Actions() != actions {
		panic(fmt.Sprintf("noma: table dimensions %dx%d, want %dx%d",
			table.States(), table.Actions(), subslots, actions))
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
		learner:       qlearn.NewLearnerOn(table, e0BackoffAction, cfg.MAC.Scratch.Uint8s(subslots)),
		explorer:      explorer,
		rng:           cfg.Rng,
		levels:        cfg.Levels,
		stepDB:        cfg.LevelStepDB,
		actions:       actions,
		startupLeft:   cfg.StartupSubslots,
		startupInit:   cfg.StartupSubslots,
		startupPunish: cfg.StartupPunish,
	}
	e.stats.LevelCount = make([]uint64, cfg.Levels)
	e.stats.SuccessByLevel = make([]uint64, cfg.Levels)
	cfg.MAC.OnOverhear = e.onOverhear
	cfg.MAC.OnAccept = e.arm
	e.base = mac.NewBase(cfg.MAC)
	return e
}

// e0BackoffAction is the learner's initial policy: backoff at level 0
// (action index Backoff·K + 0 == 0 for every K).
const e0BackoffAction = 0

// action flattens a (kind, level) pair; kindOf/levelOf invert it.
func (e *Engine) action(k Kind, level int) int { return int(k)*e.levels + level }
func (e *Engine) kindOf(a int) Kind            { return Kind(a / e.levels) }
func (e *Engine) levelOf(a int) int            { return a % e.levels }

// ReduceDB reports the power reduction of the given level in dB.
func (e *Engine) ReduceDB(level int) float64 { return float64(level) * e.stepDB }

// Levels reports K.
func (e *Engine) Levels() int { return e.levels }

// Learner exposes the Q-learning state for instrumentation and tests.
func (e *Engine) Learner() *qlearn.Learner { return e.learner }

// EngineStats returns a copy of the NOMA-specific counters.
func (e *Engine) EngineStats() Stats {
	s := e.stats
	s.LevelCount = append([]uint64(nil), e.stats.LevelCount...)
	s.SuccessByLevel = append([]uint64(nil), e.stats.SuccessByLevel...)
	return s
}

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

// Reboot implements mac.Rebooter: wipe the Q-table, policy, pending reward
// window, captured-over detection and cautious-startup progress along with
// the shared MAC state, then restart as a freshly joined node.
func (e *Engine) Reboot() {
	e.base.Reboot()
	e.armed.Cancel()
	e.armed = sim.EventID{}
	e.pend = nil
	e.overhear = false
	e.txWaiting = false
	e.foreignAck = false
	e.startupLeft = e.startupInit
	e.learner.Reset(e0BackoffAction)
	e.epoch++
	e.arm()
}

// arm schedules the next subslot tick unless one is already scheduled.
func (e *Engine) arm() {
	if e.armed.Pending() && e.armed.At() > e.base.Kernel().Now() {
		return
	}
	next := e.base.Clock().NextSubslotStart(e.base.Kernel().Now())
	e.armed = e.base.Kernel().At(next, e.tick)
}

// needTick reports whether the engine has any reason to observe the next
// subslot boundary.
func (e *Engine) needTick() bool {
	return e.pend != nil || e.startupLeft > 0 || !e.base.Queue().Empty() || e.base.Busy()
}

// tick runs at every subslot boundary while the engine is active, mirroring
// QMA's evaluation/decision split.
func (e *Engine) tick() {
	now := e.base.Kernel().Now()
	m := e.base.Clock().Subslot(now)
	if m < 0 {
		e.armIfNeeded()
		return
	}

	if e.pend != nil {
		e.evaluateBackoff(m)
	}

	switch {
	case e.base.Busy():
		// A transmission, ACK wait or ACK duty is in progress; the outcome
		// callback performs the Q-update.
	case e.startupLeft > 0:
		e.startupObserve(m)
	case e.base.Queue().Empty():
		// No packet, no action.
	default:
		// Access-class barring gates every fresh channel-access decision
		// (see internal/core for the polling discipline).
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

// evaluateBackoff finalizes a backoff action (or cautious-startup
// observation) whose reward window just closed.
func (e *Engine) evaluateBackoff(nextSubslot int) {
	p := e.pend
	e.pend = nil
	reward := float64(RewardBackoffIdle)
	if e.overhear {
		reward = RewardBackoffOverhear
	}
	e.learner.Observe(p.subslot, p.action, reward, nextSubslot)
	if p.startup && e.startupPunish && e.overhear {
		// Mark the subslot as foreign-owned across every power level of the
		// CCA and Send kinds (§4.3 applied to the extended action space).
		for level := 0; level < e.levels; level++ {
			e.learner.Observe(p.subslot, e.action(CCA, level), StartupPunishCCA, nextSubslot)
			e.learner.Observe(p.subslot, e.action(Send, level), StartupPunishSend, nextSubslot)
		}
	}
	e.overhear = false
}

// startupObserve performs one cautious-startup subslot: backoff only.
func (e *Engine) startupObserve(m int) {
	e.startupLeft--
	e.stats.StartupObservations++
	e.pend = &pending{subslot: m, action: e0BackoffAction, startup: true}
	e.overhear = false
}

// decide runs one decision step at subslot m: explore uniformly over the
// kind × level cross product with probability ρ, exploit π(m) otherwise.
// Uniform exploration over the cross product preserves QMA's kind marginals
// (each kind is drawn with probability 1/3 for every K).
func (e *Engine) decide(m int) {
	e.stats.Decisions++
	rho := e.explorer.Rate(qlearn.ExploreContext{
		Now:              e.base.Kernel().Now(),
		QueueLevel:       e.base.Queue().Len(),
		AvgNeighborQueue: e.base.AvgNeighborQueue(),
	})

	var action int
	if e.rng.Float64() < rho {
		action = e.rng.Intn(e.actions)
		e.stats.Explorations++
	} else {
		action = e.learner.Policy(m)
	}
	e.execute(m, action)
}

// execute performs the selected action.
func (e *Engine) execute(m, action int) {
	kind, level := e.kindOf(action), e.levelOf(action)
	e.stats.KindCount[kind]++
	e.stats.LevelCount[level]++
	switch kind {
	case Backoff:
		e.pend = &pending{subslot: m, action: action}
		e.overhear = false
	case CCA:
		e.startCCA(m, action)
	case Send:
		e.startTX(m, action)
	}
}

// startCCA samples the channel at the end of the 8-symbol CCA window. Note
// the asymmetry the power dimension introduces: the CCA listens at full
// sensitivity regardless of the level the node intends to transmit at — the
// level only shapes the transmission itself.
func (e *Engine) startCCA(m, action int) {
	now := e.base.Kernel().Now()
	e.base.ExtendBusy(now + frame.CCADuration)
	ep := e.epoch
	e.base.Kernel().Schedule(frame.CCADuration, func() {
		if e.epoch != ep {
			// A reboot fault struck mid-CCA (see core.Engine.startCCA).
			return
		}
		if !e.base.Medium().CCA(e.base.ID()) {
			next := e.nextDecisionSubslot()
			e.learner.Observe(m, action, RewardCCABusy, next)
			return
		}
		e.startTX(m, action)
	})
}

// startTX transmits the queue head at the action's power level.
func (e *Engine) startTX(m, action int) {
	f := e.base.Queue().Head()
	if f == nil {
		return
	}
	now := e.base.Kernel().Now()
	cost := f.Duration()
	if !f.IsBroadcast() {
		cost += frame.AckWait
	}
	if !e.base.Clock().FitsInCAP(now, cost) {
		e.stats.Deferrals++
		return
	}
	e.txWaiting = true
	e.foreignAck = false
	e.base.SendFrameAt(f, e.ReduceDB(e.levelOf(action)), func(success bool) {
		e.finishTX(m, action, f, success)
	})
}

// finishTX applies the power-aware reward once the outcome is known, then
// lets the retry policy decide the frame's fate.
func (e *Engine) finishTX(m, action int, f *frame.Frame, success bool) {
	kind, level := e.kindOf(action), e.levelOf(action)
	capturedOver := e.foreignAck && !success
	e.txWaiting = false
	e.foreignAck = false

	var reward float64
	switch {
	case success:
		if kind == Send {
			reward = RewardSendSuccess
		} else {
			reward = RewardCCASuccessTx
		}
		reward += float64(level) * LevelSuccessBonus
		e.stats.SuccessByLevel[level]++
	case capturedOver:
		reward = RewardCapturedOver
		e.stats.CapturedOver++
	case kind == Send:
		reward = RewardSendFail
	default:
		reward = RewardCCAFailedTx
	}
	next := e.nextDecisionSubslot()
	e.learner.Observe(m, action, reward, next)
	e.base.FinishFrame(f, success)
	e.armIfNeeded()
}

// nextDecisionSubslot reports the subslot of the first boundary at which the
// agent can act again.
func (e *Engine) nextDecisionSubslot() int {
	return e.base.Clock().Subslot(e.base.Clock().NextSubslotStart(e.base.Kernel().Now()))
}

// onOverhear drives both observation channels: any decoded non-beacon frame
// marks an open backoff window as "subslot in use" (Eq. 6), and an ACK
// addressed to another node during this node's own ACK wait is the
// captured-over evidence the reward shaping keys on.
func (e *Engine) onOverhear(f *frame.Frame) {
	if f.Kind == frame.Beacon {
		return
	}
	if e.pend != nil {
		e.overhear = true
	}
	if e.txWaiting && f.Kind == frame.Ack && f.Dst != e.base.ID() {
		e.foreignAck = true
	}
}
