package scenario

import (
	"fmt"

	"qma/internal/barring"
	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// Offsets of the run's random-stream layout: Substrate.Stream(offset, id)
// draws stream offset+id of the run seed. Fixed offsets keep every
// consumer's stream stable when instrumentation is added or removed.
const (
	streamEngine  = 0    // MAC engine of node id
	streamMedium  = 1000 // the medium (id 0)
	streamBarring = 4000 // access-barring gate of node id (only with barring)
	// StreamTraffic is the data source of node id; management frames add
	// 500.
	StreamTraffic = 2000
	// StreamBroadcast is the broadcast source of node id.
	StreamBroadcast = 3000
	// StreamDSME drives the DSME slot picks of node id (internal/dsme).
	StreamDSME = 5000
)

// Substrate is the run assembly both evaluation tracks share: Run's
// contention scenarios and the §6.3 DSME scenario (internal/dsme) build on
// it, then add their own wiring — nodes, traffic, faults, dynamics. It owns
// the kernel with its event and wall budgets, the superframe clock, the
// medium, the frame pool and node slab (taken from Config.Arena when set),
// the self-checks of all of them, the random-stream layout and the
// construction of MAC engines and of the barring loop.
//
// Of Config it reads the fields a substrate needs: Seed, Superframe,
// CaptureThresholdDB, EventBudget, WallBudget, InvariantChecks, Arena, the
// MAC-level QueueCap, MaxRetries, SummaryOnly, DropPolicy and DropDeadline,
// and Barring.
//
// The stream layout is collision-free for up to 1000 nodes per kernel (500
// when management traffic runs, whose streams sit 500 above the data
// sources'): beyond that, engine i and the 1000-offset consumers draw the
// same streams.
type Substrate struct {
	Kernel  *sim.Kernel
	Clock   *superframe.Clock
	Medium  *radio.Medium
	Pool    *frame.Pool
	Scratch *mac.Scratch

	cfg Config
}

// NewSubstrate assembles the substrate of one run over topology.
func NewSubstrate(cfg Config, topology radio.Topology) *Substrate {
	sfCfg := cfg.Superframe
	if sfCfg == (superframe.Config{}) {
		sfCfg = superframe.DefaultConfig()
	}
	s := &Substrate{
		Kernel:  sim.NewKernel(),
		Clock:   superframe.NewClock(sfCfg),
		Pool:    &frame.Pool{},
		Scratch: &mac.Scratch{},
		cfg:     cfg,
	}
	s.Medium = radio.NewMedium(s.Kernel, topology, s.Stream(streamMedium, 0))
	if cfg.CaptureThresholdDB > 0 {
		s.Medium.SetCaptureThreshold(cfg.CaptureThresholdDB)
	}
	if cfg.EventBudget > 0 || cfg.WallBudget > 0 {
		s.Kernel.SetBudget(cfg.EventBudget, cfg.WallBudget)
	}
	if cfg.Arena != nil {
		s.Pool, s.Scratch = cfg.Arena.Begin()
	}
	if cfg.InvariantChecks {
		s.Kernel.SetInvariantChecks(true)
		s.Medium.SetInvariantChecks(true)
		s.Pool.SetChecks(true)
	}
	return s
}

// Stream returns the run's random stream offset+id.
func (s *Substrate) Stream(offset uint64, id frame.NodeID) *sim.Rand {
	return sim.NewRandStream(s.cfg.Seed, offset+uint64(id))
}

// MACConfig returns the mac.Config fields every engine of the run shares.
// Each track adds its own hooks (router, sink delivery, DSME commands).
func (s *Substrate) MACConfig(id frame.NodeID) mac.Config {
	c := mac.Config{
		ID:           id,
		Kernel:       s.Kernel,
		Medium:       s.Medium,
		Clock:        s.Clock,
		QueueCap:     s.cfg.QueueCap,
		MaxRetries:   s.cfg.MaxRetries,
		FramePool:    s.Pool,
		Scratch:      s.Scratch,
		SummaryOnly:  s.cfg.SummaryOnly,
		Drop:         s.cfg.DropPolicy,
		DropDeadline: s.cfg.DropDeadline,
	}
	// The barring stream only exists when barring is configured: a
	// zero-valued Barring config must leave the run byte-identical to a
	// pre-barring build.
	if s.cfg.Barring.Enabled() {
		c.BarringRng = s.Stream(streamBarring, id)
	}
	return c
}

// Engine builds a MAC engine of the given kind ("" = QMA) over macCfg on
// node macCfg.ID's engine stream. opts carries protocol-specific options
// (nil = the protocol's defaults) and must match the protocol's registered
// options type. It panics on an unknown protocol or rejected options:
// scenario assembly is programmer-controlled, and the public qma API
// validates protocol names and options before reaching this point.
func (s *Substrate) Engine(kind MACKind, opts any, macCfg mac.Config) mac.Engine {
	if kind == "" {
		kind = QMA
	}
	e, err := mac.Build(string(kind), macCfg, opts, s.Stream(streamEngine, macCfg.ID))
	if err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
	return e
}

// ArmBarring installs the sink-side access-class barring loop of
// Config.Barring; it does nothing when barring is disabled and panics on an
// invalid config. Once per beacon interval (default one superframe, the
// simulator's implicit beacon) the sink diffs the congestion counters it
// observes on the medium — deliveries, collisions, captures and raw channel
// airtime — into a barring.Observation, runs the controller over it, and
// pushes the barring factor (with the configured backoff, default one
// superframe) to every engine's MAC base as the beacon payload. The loop
// draws no randomness; the nodes' gates draw from their barring streams.
func (s *Substrate) ArmBarring(sink frame.NodeID, engines []mac.Engine) {
	cfg := s.cfg.Barring
	if !cfg.Enabled() {
		return
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("scenario: %v", err))
	}
	sfd := s.Clock.Config().SuperframeDuration()
	interval := cfg.Interval
	if interval <= 0 {
		interval = sfd
	}
	backoff := cfg.Backoff
	if backoff <= 0 {
		backoff = sfd
	}
	ctrl := barring.New(cfg)
	var prev radio.NodeStats
	var prevAir sim.Time
	var tick func()
	tick = func() {
		cur := s.Medium.Stats(sink)
		_, air := s.Medium.ChannelLoad()
		obs := barring.Observation{
			Delivered:    cur.RxDelivered - prev.RxDelivered,
			Collided:     cur.RxCollided - prev.RxCollided,
			Captured:     cur.RxCaptured - prev.RxCaptured,
			BusyFraction: float64(air-prevAir) / float64(interval),
		}
		prev, prevAir = cur, air
		p := ctrl.Update(obs)
		for _, e := range engines {
			e.Base().SetBarring(p, backoff)
		}
		s.Kernel.Schedule(interval, tick)
	}
	s.Kernel.Schedule(interval, tick)
}
