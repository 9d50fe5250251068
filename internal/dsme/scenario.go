package dsme

import (
	"time"

	"qma/internal/barring"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/topo"
	"qma/internal/traffic"
)

// ScenarioConfig describes a §6.3 data-collection run: every non-sink node
// generates primary data towards the center with a fluctuating Poisson rate;
// primary packets travel in GTS slots, and the resulting (de)allocation
// handshakes plus periodic route-discovery broadcasts form the secondary
// traffic carried by the MAC under test during the CAP.
type ScenarioConfig struct {
	// Network is the topology with routing (usually topo.Rings).
	Network *topo.Network
	// MAC selects the CAP channel access scheme.
	MAC scenario.MACKind
	// MACOptions carries the CAP protocol's options value (core.Options for
	// QMA, ...); nil selects the protocol's defaults.
	MACOptions any
	// Seed selects the random streams.
	Seed uint64
	// Duration is the total simulated time.
	Duration sim.Time
	// Warmup opens the measurement window (the paper uses 200 s "to allow
	// for network formation"); traffic, slot allocation and learning run
	// from TrafficStart so the network has formed when measuring begins.
	Warmup sim.Time
	// TrafficStart delays the primary sources (0 selects 5 s).
	TrafficStart sim.Time
	// Phases is the per-node primary rate schedule. Nil selects the paper's
	// alternation of δ=1 and δ=10 packets/s every 5 s.
	Phases []traffic.Phase
	// BroadcastPeriod is the route-discovery hello interval (0 selects 2 s;
	// AODV's default hello interval is 1 s). The periodic broadcasts are
	// part of the secondary traffic and, being periodic, are exactly the
	// kind of hidden pattern QMA learns.
	BroadcastPeriod sim.Time
	// MaxTxSlots caps the GTS a node may hold (0 selects the CFP width).
	MaxTxSlots int
	// Barring configures sink-side load-adaptive access-class barring for
	// the CAP engines: the barring factor rides the (here: explicit DSME)
	// beacon each beacon interval, and the nodes gate fresh CAP
	// channel-access attempts on it. The zero value disables barring —
	// byte-identical to a pre-barring build.
	Barring barring.Config
	// EventBudget truncates the run after this many kernel events when
	// positive; WallBudget truncates it after this much real time. Both mark
	// ScenarioResult.Truncated, like scenario.Config's fields of the same
	// names.
	EventBudget uint64
	WallBudget  time.Duration
	// InvariantChecks arms the kernel, medium and frame-pool runtime
	// self-checks.
	InvariantChecks bool
	// Arena, when non-nil, recycles the run's frame pool and per-node
	// hot-state slab across back-to-back runs of one worker (see
	// scenario.Config.Arena). Results are byte-identical with or without it.
	Arena *scenario.Arena
}

// ScenarioResult carries the §6.3 metrics.
type ScenarioResult struct {
	// Metrics is the network-wide counter snapshot.
	Metrics Metrics
	// AllocationsPerSecond counts completed (de)allocation handshakes per
	// measured second (the "twice more TDMA-slots per second" claim).
	AllocationsPerSecond float64
	// Nodes are the per-node DSME counters.
	Nodes []NodeStats
	// CAP are the per-node MAC counters of the CAP engines.
	CAP []mac.Stats
	// SlotsOwned is the final number of TX slots per node.
	SlotsOwned []int
	// Truncated reports that the run was cut short by EventBudget or
	// WallBudget before reaching Duration.
	Truncated bool
}

// scenarioRun holds the live objects of a DSME run.
type scenarioRun struct {
	cfg     ScenarioConfig
	kernel  *sim.Kernel
	nodes   []*Node
	metrics *Metrics
	// before snapshots the node counters when the measurement window opens.
	before []NodeStats
}

// RunScenario executes a DSME data-collection run.
func RunScenario(cfg ScenarioConfig) *ScenarioResult {
	r := buildScenario(cfg)
	r.kernel.Run(r.cfg.Duration)
	return r.result()
}

// buildScenario assembles the substrate, the nodes with their CAP engines,
// the traffic and the warm-up hook.
func buildScenario(cfg ScenarioConfig) *scenarioRun {
	if cfg.Network == nil {
		panic("dsme: Network is required")
	}
	if cfg.Duration <= 0 {
		panic("dsme: Duration must be positive")
	}
	if cfg.Phases == nil {
		cfg.Phases = []traffic.Phase{
			{Rate: 1, Duration: 5 * sim.Second},
			{Rate: 10, Duration: 5 * sim.Second},
		}
	}
	if cfg.BroadcastPeriod <= 0 {
		cfg.BroadcastPeriod = 2 * sim.Second
	}
	if cfg.TrafficStart <= 0 {
		cfg.TrafficStart = 5 * sim.Second
	}

	sub := scenario.NewSubstrate(scenario.Config{
		// CAP engines send each frame once (NR = 0).
		MaxRetries:      -1,
		Seed:            cfg.Seed,
		Barring:         cfg.Barring,
		EventBudget:     cfg.EventBudget,
		WallBudget:      cfg.WallBudget,
		InvariantChecks: cfg.InvariantChecks,
		Arena:           cfg.Arena,
	}, cfg.Network.Topology)
	kernel := sub.Kernel
	metrics := &Metrics{}

	n := cfg.Network.NumNodes()
	nodes := make([]*Node, n)
	caps := make([]mac.Engine, n)
	for i := 0; i < n; i++ {
		id := frame.NodeID(i)
		node := NewNode(NodeConfig{
			ID:         id,
			Kernel:     kernel,
			Medium:     sub.Medium,
			Clock:      sub.Clock,
			Parent:     cfg.Network.Parent[i],
			Sink:       cfg.Network.Sink,
			Rng:        sub.Stream(scenario.StreamDSME, id),
			MaxTxSlots: cfg.MaxTxSlots,
			Metrics:    metrics,
			FramePool:  sub.Pool,
		})
		macCfg := sub.MACConfig(id)
		macCfg.OnCommand = node.CommandHook()
		engine := sub.Engine(cfg.MAC, cfg.MACOptions, macCfg)
		node.AttachCAP(engine)
		nodes[i] = node
		caps[i] = engine
		sub.Medium.Attach(id, node)
	}
	for _, node := range nodes {
		node.Start()
	}
	// The barring factor rides the beacon: once per beacon interval the sink
	// folds the congestion it observed on the medium into the controller and
	// the nodes pick the new factor up with the beacon.
	sub.ArmBarring(cfg.Network.Sink, caps)

	// Secondary background traffic: periodic route-discovery broadcasts.
	for i := 0; i < n; i++ {
		b := &traffic.BroadcastSource{
			Kernel:  kernel,
			Rng:     sub.Stream(scenario.StreamBroadcast, frame.NodeID(i)),
			Target:  nodes[i].CAP(),
			Pool:    sub.Pool,
			Origin:  frame.NodeID(i),
			Period:  cfg.BroadcastPeriod,
			StartAt: 2 * sim.Second,
			OnGenerate: func(f *frame.Frame) {
				metrics.noteBroadcastSent()
			},
		}
		b.Start()
	}

	// Primary traffic: every non-sink node streams data to the center.
	for i := 0; i < n; i++ {
		if frame.NodeID(i) == cfg.Network.Sink {
			continue
		}
		src := &traffic.Source{
			Kernel: kernel,
			Rng:    sub.Stream(scenario.StreamTraffic, frame.NodeID(i)),
			Target: nodes[i],
			Origin: frame.NodeID(i),
			Sink:   cfg.Network.Sink,
			// FirstHop is rewritten by Node.Enqueue; the parent is correct
			// here for clarity.
			FirstHop: cfg.Network.Parent[i],
			Phases:   cfg.Phases,
			StartAt:  cfg.TrafficStart,
			Tag:      frame.TagEval,
		}
		src.Start()
	}

	r := &scenarioRun{cfg: cfg, kernel: kernel, nodes: nodes, metrics: metrics}
	kernel.At(cfg.Warmup, func() {
		metrics.SetMeasuring(true)
		r.before = make([]NodeStats, n)
		for i, node := range nodes {
			r.before[i] = node.Stats()
		}
	})
	return r
}

// result collects the §6.3 metrics of a finished run.
func (r *scenarioRun) result() *ScenarioResult {
	n := len(r.nodes)
	res := &ScenarioResult{
		Metrics:    *r.metrics,
		Nodes:      make([]NodeStats, n),
		CAP:        make([]mac.Stats, n),
		SlotsOwned: make([]int, n),
		Truncated:  r.kernel.BudgetExhausted(),
	}
	var completed uint64
	for i, node := range r.nodes {
		res.Nodes[i] = node.Stats()
		res.CAP[i] = node.CAP().Base().Stats()
		res.SlotsOwned[i] = node.Slots().Count(SlotTX)
		completed += res.Nodes[i].AllocCompleted + res.Nodes[i].DeallocCompleted
		if r.before != nil {
			completed -= r.before[i].AllocCompleted + r.before[i].DeallocCompleted
		}
	}
	measured := r.cfg.Duration - r.cfg.Warmup
	if measured > 0 {
		res.AllocationsPerSecond = float64(completed) / measured.Seconds()
	}
	return res
}
