// Package scenario wires topologies, MAC engines, traffic generators and
// instrumentation into complete, reproducible simulation runs. Every
// experiment of the evaluation (and the public qma facade) builds on Run:
// given a Config and a seed it produces the per-node metrics the paper's
// figures report — PDR, end-to-end delay, queue levels, cumulative Q-values,
// exploration rates and slot utilization.
package scenario

import (
	"fmt"
	"time"

	"qma/internal/barring"
	"qma/internal/core"
	"qma/internal/csma"
	"qma/internal/faults"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/stats"
	"qma/internal/superframe"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// MACKind selects the channel access scheme under test by its registry key
// (see internal/mac's protocol registry). The empty string selects QMA.
// perfbench (module qma/perfbench) names this type, so it stays.
type MACKind = mac.Name

// Registry keys of the protocols every evaluation track compares. Further
// protocols (internal/aloha, internal/bandit, ...) are addressed by the
// constants their own packages export.
const (
	// QMA is the paper's Q-learning MAC.
	QMA MACKind = core.ProtocolName
	// CSMAUnslotted is the unslotted CSMA/CA baseline.
	CSMAUnslotted MACKind = csma.ProtoUnslotted
	// CSMASlotted is the slotted CSMA/CA baseline.
	CSMASlotted MACKind = csma.ProtoSlotted
)

// TrafficSpec attaches a Poisson data source to a node.
type TrafficSpec struct {
	// Origin is the generating node.
	Origin frame.NodeID
	// Phases is the cyclic rate schedule (packets/second).
	Phases []traffic.Phase
	// StartAt delays generation.
	StartAt sim.Time
	// MaxPackets bounds generation (0 = unbounded).
	MaxPackets int
	// Tag classifies the frames (evaluation vs management).
	Tag frame.Tag
	// MPDUBytes overrides the default frame size when positive.
	MPDUBytes int
}

// BroadcastSpec attaches a periodic broadcast source to a node.
type BroadcastSpec struct {
	// Origin is the broadcasting node.
	Origin frame.NodeID
	// Period is the mean broadcast interval.
	Period sim.Time
	// StartAt delays the first broadcast.
	StartAt sim.Time
}

// FadeSpec schedules a deterministic deep fade: from At until At+Duration
// every frame to or from Node is lost at delivery time (the air stays
// occupied, so the disturbance is visible to carrier sensing and learning).
type FadeSpec struct {
	Node     frame.NodeID
	At       sim.Time
	Duration sim.Time
}

// ChurnSpec schedules a node leaving (Leave true) or rejoining the network
// at the given instant. Link re-classification is incremental (O(degree)).
type ChurnSpec struct {
	Node  frame.NodeID
	At    sim.Time
	Leave bool
}

// MoveSpec schedules a waypoint position update. Moves require a
// position-based topology (radio.MobileTopology); the run operates on a
// private clone so the shared Network stays immutable across replications.
type MoveSpec struct {
	Node frame.NodeID
	At   sim.Time
	To   radio.Position
}

// DynamicsConfig describes the time-varying behaviour of a run. The zero
// value disables every mechanism, in which case the run is guaranteed to be
// byte-identical to a pre-dynamics build: no extra random draws, no extra
// events, identical link state.
type DynamicsConfig struct {
	// Gilbert is the per-link burst-error process (zero value = off).
	Gilbert radio.GilbertElliott
	// Fades, Churn and Moves are the scheduled disturbances, applied in
	// slice order when instants coincide.
	Fades []FadeSpec
	Churn []ChurnSpec
	Moves []MoveSpec
}

// Enabled reports whether any dynamics mechanism is configured.
func (d *DynamicsConfig) Enabled() bool {
	return d.Gilbert.Enabled() || len(d.Fades) > 0 || len(d.Churn) > 0 || len(d.Moves) > 0
}

// Config describes one run.
type Config struct {
	// Network is the topology with routing; required.
	Network *topo.Network
	// MAC selects the channel access scheme by registry key ("" = QMA).
	MAC MACKind
	// MACOptions carries the protocol's options value (core.Options for
	// QMA, csma.Options, aloha.Options, ...); nil selects the protocol's
	// defaults.
	MACOptions any
	// CaptureThresholdDB enables receiver-side SINR capture on the medium:
	// the strongest of several overlapping frames still decodes when its
	// power clears the sum of the interferers by this many dB (<= 0: capture
	// disabled, every overlap collides — the byte-identical default).
	CaptureThresholdDB float64
	// Superframe overrides the DSME timing (zero value selects the default).
	Superframe superframe.Config
	// QueueCap bounds the transmit queues (0 selects the paper's 8).
	QueueCap int
	// MaxRetries is NR: 0 selects the standard's 3, negative disables
	// retransmissions entirely.
	MaxRetries int
	// Seed selects the run's random streams; replications vary it.
	Seed uint64
	// Duration is the simulated time.
	Duration sim.Time
	// Traffic are the unicast data sources.
	Traffic []TrafficSpec
	// Broadcasts are the periodic broadcast sources.
	Broadcasts []BroadcastSpec
	// SamplePeriod enables time-series sampling of cumulative Q, ρ and
	// queue levels at this period (0 disables; the figures sample once per
	// superframe, 122.88 ms).
	SamplePeriod sim.Time
	// MeasureFrom restarts queue-level averaging at this instant so warm-up
	// does not bias the Fig. 8 metric.
	MeasureFrom sim.Time
	// Dynamics configures time-varying channels and node churn (zero value:
	// static run, byte-identical to the pre-dynamics simulator).
	Dynamics DynamicsConfig
	// Faults is the deterministic infrastructure fault script — sink
	// outages, node reboots, ACK corruption, beacon loss (zero value: no
	// faults, byte-identical to a fault-free build).
	Faults faults.Schedule
	// Barring configures sink-side load-adaptive access-class barring: once
	// per beacon interval the sink observes the medium's congestion and
	// broadcasts a barring factor p with the (implicit) beacon; nodes gate
	// fresh channel-access attempts on a Bernoulli(p) draw. The zero value
	// disables barring entirely — no extra random streams, no extra events,
	// byte-identical to a pre-barring build.
	Barring barring.Config
	// DropPolicy selects how a full transmit queue makes room for an
	// arriving frame: tail-drop (zero value, reject the arrival — the
	// pre-backpressure behaviour), drop-oldest, or deadline-drop. See
	// mac.DropPolicy.
	DropPolicy mac.DropPolicy
	// DropDeadline is the residence deadline for mac.DeadlineDrop (0 selects
	// 16 superframes).
	DropDeadline sim.Time
	// EventBudget truncates the run after this many kernel events when
	// positive; WallBudget truncates it after this much real time. Both mark
	// Result.Truncated. Replicated sweeps use them to bound runaway runs.
	EventBudget uint64
	WallBudget  time.Duration
	// SummaryOnly skips materializing the per-node NodeResult slice: the run
	// accumulates only network-wide totals (generated, delivered, delay sum)
	// into Result.Summary, so result memory is O(1) instead of O(N) — the
	// mMTC scale-out path, where N reaches 100k–1M per run. Per-node
	// observations remain available through the OnEvalGenerate/OnEvalDeliver
	// hooks. Incompatible with SamplePeriod (per-node series need per-node
	// results).
	SummaryOnly bool
	// InvariantChecks enables the runtime self-checks of the kernel, the
	// medium and the frame pool for this run (tests and fuzz harnesses).
	InvariantChecks bool
	// Arena, when non-nil, recycles the run's frame pool and per-node
	// hot-state slab. Replicated sweeps pass one Arena per worker so
	// back-to-back runs stop re-allocating their node state; results are
	// byte-identical with or without it. The Arena must not be shared by
	// concurrent runs.
	Arena *Arena
	// OnEvalGenerate and OnEvalDeliver observe evaluation traffic as it is
	// generated and as it reaches the sink — the dynamics experiments use
	// them to compute windowed PDR and post-disturbance recovery times.
	// Either may be nil.
	OnEvalGenerate func(origin frame.NodeID, at sim.Time)
	OnEvalDeliver  func(origin frame.NodeID, createdAt, at sim.Time)
}

// NodeResult carries everything measured at one node.
type NodeResult struct {
	// ID is the dense node id, Label the paper's name for it.
	ID    frame.NodeID
	Label string
	// Generated counts evaluation packets originated here; Delivered counts
	// evaluation packets from this origin accepted at their sink; DelaySum
	// accumulates their end-to-end delays.
	Generated uint64
	Delivered uint64
	DelaySum  sim.Time
	// AvgQueueLevel is the time-averaged transmit-queue occupancy since
	// MeasureFrom (Fig. 8).
	AvgQueueLevel float64
	// MAC are the shared MAC counters, Radio the medium-level counters.
	MAC   mac.Stats
	Radio radio.NodeStats
	// PowerAirtime is the node's TX airtime broken down by power level
	// (reference-power remainder first). Nil unless some node of the run
	// transmitted at reduced power (see radio.Medium.TxAirtimeByPower).
	PowerAirtime []radio.PowerAirtime
	// QMA-only: engine counters, final policy, per-subslot action counts and
	// sampled series (nil/empty for CSMA nodes or when sampling is off).
	Engine       core.Stats
	Policy       []int
	ActionCounts [][core.NumActions]uint64
	// TableBytes is the Q-table's value-storage footprint in bytes — the
	// §3.2 resource figure for the selected representation (0 for CSMA
	// nodes, which hold no table).
	TableBytes  int
	CumQ        *stats.Series
	Rho         *stats.Series
	QueueSeries *stats.Series
}

// PDR reports Delivered/Generated for this origin (1 when nothing was
// generated).
func (n *NodeResult) PDR() float64 {
	if n.Generated == 0 {
		return 1
	}
	return float64(n.Delivered) / float64(n.Generated)
}

// MeanDelay reports the mean end-to-end delay of delivered evaluation
// packets in seconds.
func (n *NodeResult) MeanDelay() float64 {
	if n.Delivered == 0 {
		return 0
	}
	return (sim.Time(float64(n.DelaySum) / float64(n.Delivered))).Seconds()
}

// Summary holds the network-wide totals of a SummaryOnly run.
type Summary struct {
	// Generated counts evaluation packets originated anywhere; Delivered
	// counts evaluation packets accepted at their sink; DelaySum accumulates
	// the delivered packets' end-to-end delays.
	Generated uint64
	Delivered uint64
	DelaySum  sim.Time
}

// Result is the outcome of one run.
type Result struct {
	// Nodes holds one entry per node, indexed by dense id (nil for
	// SummaryOnly runs).
	Nodes []NodeResult
	// Summary holds the network-wide totals of a SummaryOnly run (nil
	// otherwise — the totals then live in Nodes).
	Summary *Summary
	// Clock is the superframe clock the run used.
	Clock *superframe.Clock
	// Duration is the simulated time actually run.
	Duration sim.Time
	// Events is the number of kernel events the run processed — the
	// denominator for events/second throughput reporting.
	Events uint64
	// Truncated reports that the run was cut short by Config.EventBudget or
	// Config.WallBudget before reaching Duration.
	Truncated bool
}

// NetworkPDR reports total delivered / total generated evaluation packets
// across all origins (the headline Fig. 7 metric).
func (r *Result) NetworkPDR() float64 {
	var gen, del uint64
	if r.Summary != nil {
		gen, del = r.Summary.Generated, r.Summary.Delivered
	}
	for i := range r.Nodes {
		gen += r.Nodes[i].Generated
		del += r.Nodes[i].Delivered
	}
	if gen == 0 {
		return 1
	}
	return float64(del) / float64(gen)
}

// MeanDelay reports the mean end-to-end delay over all delivered evaluation
// packets, in seconds (Fig. 9).
func (r *Result) MeanDelay() float64 {
	var sum sim.Time
	var n uint64
	if r.Summary != nil {
		sum, n = r.Summary.DelaySum, r.Summary.Delivered
	}
	for i := range r.Nodes {
		sum += r.Nodes[i].DelaySum
		n += r.Nodes[i].Delivered
	}
	if n == 0 {
		return 0
	}
	return (sim.Time(float64(sum) / float64(n))).Seconds()
}

// MeanQueueLevel reports the mean of the per-origin average queue levels for
// the given nodes (Fig. 8 plots nodes A and C).
func (r *Result) MeanQueueLevel(ids ...frame.NodeID) float64 {
	if len(ids) == 0 {
		for i := range r.Nodes {
			ids = append(ids, frame.NodeID(i))
		}
	}
	var sum float64
	for _, id := range ids {
		sum += r.Nodes[id].AvgQueueLevel
	}
	return sum / float64(len(ids))
}

// run holds the live objects during a simulation.
type run struct {
	*Substrate
	engines []mac.Engine
	qma     []*core.Engine // nil entries for CSMA runs
	result  *Result
}

// Run executes the scenario and returns its metrics. It panics on
// configuration errors (scenario assembly is programmer-controlled) but
// never on simulation behaviour.
func Run(cfg Config) *Result {
	return RunWithEngines(cfg).Result
}

// Output bundles a Result with the live engines for post-run inspection
// (per-engine counters, Q-tables).
type Output struct {
	*Result
	Engines []mac.Engine
}

// RunWithEngines is Run, additionally exposing the engines.
func RunWithEngines(cfg Config) *Output {
	r := build(cfg)
	r.Kernel.Run(cfg.Duration)
	r.collect()
	return &Output{Result: r.result, Engines: r.engines}
}

// build assembles the substrate, engines, traffic and instrumentation.
func build(cfg Config) *run {
	if cfg.Network == nil {
		panic("scenario: Network is required")
	}
	if cfg.Duration <= 0 {
		panic("scenario: Duration must be positive")
	}
	n := cfg.Network.NumNodes()

	topology := cfg.Network.Topology
	if len(cfg.Dynamics.Moves) > 0 {
		// Moves mutate positions; run on a private clone so the Network
		// stays shareable across parallel replications. Any mobile topology
		// must therefore also be cloneable.
		c, ok := topology.(radio.CloneableTopology)
		if !ok {
			panic(fmt.Sprintf("scenario: Dynamics.Moves require a cloneable position-based topology, got %T", topology))
		}
		clone := c.CloneTopology()
		if _, ok := clone.(radio.MobileTopology); !ok {
			panic(fmt.Sprintf("scenario: Dynamics.Moves require a topology supporting MoveNode, got %T", topology))
		}
		topology = clone
	}
	sub := NewSubstrate(cfg, topology)
	// The Gilbert–Elliott process derives per-link streams of its own from
	// the seed.
	if cfg.Dynamics.Enabled() {
		armDynamics(sub.Kernel, sub.Medium, cfg.Dynamics, cfg.Seed)
	}

	result := &Result{Clock: sub.Clock, Duration: cfg.Duration}
	if cfg.SummaryOnly {
		if cfg.SamplePeriod > 0 {
			panic("scenario: SummaryOnly is incompatible with SamplePeriod (per-node series need per-node results)")
		}
		result.Summary = &Summary{}
	} else {
		result.Nodes = make([]NodeResult, n)
	}
	r := &run{
		Substrate: sub,
		engines:   make([]mac.Engine, n),
		qma:       make([]*core.Engine, n),
		result:    result,
	}

	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		if !cfg.SummaryOnly {
			r.result.Nodes[i] = NodeResult{ID: id, Label: cfg.Network.Label(id)}
		}
		r.engines[i] = r.Engine(cfg.MAC, cfg.MACOptions, r.macConfig(id))
		if q, ok := r.engines[i].(*core.Engine); ok {
			r.qma[i] = q
		}
		r.Medium.Attach(id, r.engines[i])
	}
	for i := range r.engines {
		r.engines[i].Start()
	}
	if cfg.Faults.Enabled() {
		if err := cfg.Faults.Validate(n); err != nil {
			panic(fmt.Sprintf("scenario: %v", err))
		}
		armFaults(r.Kernel, r.Clock, r.engines, cfg.Faults)
	}
	r.ArmBarring(cfg.Network.Sink, r.engines)
	if cfg.MeasureFrom > 0 {
		r.Kernel.At(cfg.MeasureFrom, func() {
			for _, e := range r.engines {
				e.Base().ResetQueueIntegral()
			}
		})
	}
	r.buildTraffic()
	if cfg.SamplePeriod > 0 {
		r.armSampler()
	}
	return r
}

// armDynamics installs the burst-error process and schedules the churn,
// mobility and fade events on the kernel. Events sharing an instant fire in
// configuration order (the kernel's scheduling order is total).
func armDynamics(kernel *sim.Kernel, medium *radio.Medium, d DynamicsConfig, seed uint64) {
	medium.EnableDynamics()
	if d.Gilbert.Enabled() {
		medium.SetGilbertElliott(d.Gilbert, seed)
	}
	for _, f := range d.Fades {
		f := f
		kernel.At(f.At, func() { medium.SetFadeUntil(f.Node, f.At+f.Duration) })
	}
	for _, c := range d.Churn {
		c := c
		kernel.At(c.At, func() { medium.SetPresent(c.Node, !c.Leave) })
	}
	for _, mv := range d.Moves {
		mv := mv
		kernel.At(mv.At, func() { medium.MoveNode(mv.Node, mv.To) })
	}
}

// armFaults schedules the deterministic fault script on the kernel. Nodes
// are addressed through their shared mac.Base; reboots go through the
// mac.Rebooter interface when the engine implements it (all registered
// protocols do), falling back to wiping just the Base otherwise. Beacon
// semantics: beacons are implicit in this simulator — every node
// synchronizes through the shared superframe clock, with a notional beacon
// at each superframe start — so losing beacons becomes a channel-access
// suspension over the beacon-aligned window faults.SuspendWindow derives.
func armFaults(kernel *sim.Kernel, clock *superframe.Clock, engines []mac.Engine, s faults.Schedule) {
	sfd := clock.Config().SuperframeDuration()
	for _, o := range s.Outages {
		o := o
		end := o.At + o.Duration
		kernel.At(o.At, func() { engines[o.Node].Base().SetDownUntil(end) })
		if !o.StopBeacons {
			continue
		}
		// The outage node was the beacon source: every other node misses all
		// beacons of the window and suspends channel access until resync.
		from, until, ok := faults.SuspendWindow(sfd, o.At, o.Duration)
		if !ok {
			continue
		}
		for i := range engines {
			if i == o.Node {
				continue
			}
			b := engines[i].Base()
			kernel.At(from, func() { b.SetDesyncUntil(until) })
		}
	}
	for _, rb := range s.Reboots {
		rb := rb
		kernel.At(rb.At, func() {
			if r, ok := engines[rb.Node].(mac.Rebooter); ok {
				r.Reboot()
			} else {
				engines[rb.Node].Base().Reboot()
			}
		})
	}
	for _, w := range s.AckCorruption {
		w := w
		end := w.At + w.Duration
		kernel.At(w.At, func() {
			for _, e := range engines {
				e.Base().CorruptAcksUntil(end)
			}
		})
	}
	for _, bl := range s.BeaconLoss {
		from, until, ok := faults.SuspendWindow(sfd, bl.At, bl.Duration)
		if !ok {
			continue
		}
		b := engines[bl.Node].Base()
		kernel.At(from, func() { b.SetDesyncUntil(until) })
	}
}

// macConfig adds Run's routing and sink accounting to the shared fields.
func (r *run) macConfig(id frame.NodeID) mac.Config {
	c := r.MACConfig(id)
	c.Router = r.cfg.Network
	c.OnSinkDeliver = func(f *frame.Frame) {
		if f.Tag != frame.TagEval || f.Kind != frame.Data {
			return
		}
		if s := r.result.Summary; s != nil {
			s.Delivered++
			s.DelaySum += r.Kernel.Now() - f.CreatedAt
		} else {
			origin := &r.result.Nodes[f.Origin]
			origin.Delivered++
			origin.DelaySum += r.Kernel.Now() - f.CreatedAt
		}
		if r.cfg.OnEvalDeliver != nil {
			r.cfg.OnEvalDeliver(f.Origin, f.CreatedAt, r.Kernel.Now())
		}
	}
	return c
}

func (r *run) buildTraffic() {
	seqs := make(map[frame.NodeID]*uint32)
	for _, spec := range r.cfg.Traffic {
		spec := spec
		if seqs[spec.Origin] == nil {
			seqs[spec.Origin] = new(uint32)
		}
		firstHop, ok := r.cfg.Network.NextHop(spec.Origin, r.cfg.Network.Sink)
		if !ok {
			panic(fmt.Sprintf("scenario: node %d has no route to the sink", spec.Origin))
		}
		var node *NodeResult
		if r.result.Summary == nil {
			node = &r.result.Nodes[spec.Origin]
		}
		src := &traffic.Source{
			Kernel:     r.Kernel,
			Rng:        r.Stream(StreamTraffic+uint64(spec.Tag)*500, spec.Origin),
			Target:     r.engines[spec.Origin],
			Origin:     spec.Origin,
			Sink:       r.cfg.Network.Sink,
			FirstHop:   firstHop,
			Phases:     spec.Phases,
			StartAt:    spec.StartAt,
			MaxPackets: spec.MaxPackets,
			MPDUBytes:  spec.MPDUBytes,
			Tag:        spec.Tag,
			Seq:        seqs[spec.Origin],
			Pool:       r.Pool,
			OnGenerate: func(f *frame.Frame) {
				if f.Tag == frame.TagEval {
					if node != nil {
						node.Generated++
					} else {
						r.result.Summary.Generated++
					}
					if r.cfg.OnEvalGenerate != nil {
						r.cfg.OnEvalGenerate(f.Origin, r.Kernel.Now())
					}
				}
			},
		}
		src.Start()
	}
	for _, spec := range r.cfg.Broadcasts {
		b := &traffic.BroadcastSource{
			Kernel:  r.Kernel,
			Rng:     r.Stream(StreamBroadcast, spec.Origin),
			Target:  r.engines[spec.Origin],
			Origin:  spec.Origin,
			Period:  spec.Period,
			StartAt: spec.StartAt,
			Pool:    r.Pool,
		}
		b.Start()
	}
}

func (r *run) armSampler() {
	for i := range r.result.Nodes {
		node := &r.result.Nodes[i]
		node.QueueSeries = &stats.Series{}
		if r.qma[i] != nil {
			node.CumQ = &stats.Series{}
			node.Rho = &stats.Series{}
		}
	}
	var tick func()
	tick = func() {
		now := r.Kernel.Now().Seconds()
		for i, e := range r.engines {
			node := &r.result.Nodes[i]
			node.QueueSeries.Add(now, float64(e.Base().Queue().Len()))
			if q := r.qma[i]; q != nil {
				node.CumQ.Add(now, q.CumulativePolicyQ())
				rho, _ := q.TakeRhoSample()
				node.Rho.Add(now, rho)
			}
		}
		r.Kernel.Schedule(r.cfg.SamplePeriod, tick)
	}
	r.Kernel.Schedule(r.cfg.SamplePeriod, tick)
}

// collect copies the end-of-run counters into the result. SummaryOnly runs
// collect nothing per node — their totals accumulated during the run.
func (r *run) collect() {
	r.result.Events = r.Kernel.Processed()
	r.result.Truncated = r.Kernel.BudgetExhausted()
	if r.result.Summary != nil {
		return
	}
	for i, e := range r.engines {
		node := &r.result.Nodes[i]
		node.MAC = e.Base().Stats()
		node.Radio = r.Medium.Stats(frame.NodeID(i))
		node.PowerAirtime = r.Medium.TxAirtimeByPower(frame.NodeID(i))
		node.AvgQueueLevel = e.Base().AvgQueueLevel()
		if q := r.qma[i]; q != nil {
			node.Engine = q.EngineStats()
			node.Policy = q.Learner().PolicySnapshot()
			node.ActionCounts = q.ActionCounts()
			node.TableBytes = q.Learner().Table().MemoryBytes()
		}
	}
}
