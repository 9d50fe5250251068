package qma

import (
	"errors"
	"fmt"

	"qma/internal/core"
	"qma/internal/dsme"
	"qma/internal/markov"
	"qma/internal/sim"
	"qma/internal/traffic"
)

func markovExpected(p float64) float64 { return markov.ExpectedHandshakeMessages(p) }

// DSMEScenario describes a §6.3 data-collection run: every non-sink node
// streams primary data to the topology's sink through guaranteed time slots,
// while the GTS (de)allocation handshakes and periodic route-discovery
// broadcasts contend during the CAP under the selected MAC.
type DSMEScenario struct {
	// Topology is the network (typically Rings(k)).
	Topology *Topology
	// MAC selects the CAP channel access scheme.
	MAC MAC
	// Learn and Table tune QMA's learning (ignored for CSMA runs).
	Learn LearnParams
	Table TableKind
	// Seed selects the random streams.
	Seed uint64
	// DurationSeconds is the total simulated time.
	DurationSeconds float64
	// WarmupSeconds opens the measurement window after network formation
	// (the paper uses 200 s).
	WarmupSeconds float64
	// Phases is the per-node primary rate schedule; nil selects the paper's
	// alternation of 1 and 10 packets/s every 5 s.
	Phases []Phase
	// BroadcastPeriodSeconds is the route-discovery hello interval
	// (0 selects 2 s).
	BroadcastPeriodSeconds float64
}

// DSMEResult reports the §6.3 metrics.
type DSMEResult struct {
	// SecondaryPDR is the delivery ratio of the CAP traffic (Fig. 21).
	SecondaryPDR float64
	// RequestSuccess is the fraction of acknowledged GTS-requests (Fig. 22).
	RequestSuccess float64
	// AllocationsPerSecond counts completed (de)allocation handshakes per
	// measured second.
	AllocationsPerSecond float64
	// PrimaryPDR and PrimaryDelaySeconds describe the GTS data path.
	PrimaryPDR          float64
	PrimaryDelaySeconds float64
	// DuplicateAllocations counts detected duplicate-GTS conflicts.
	DuplicateAllocations uint64
	// SlotsOwned is the final number of TX slots per node.
	SlotsOwned []int
}

// Validate reports the first configuration problem, or nil.
func (s *DSMEScenario) Validate() error {
	switch {
	case s.Topology == nil:
		return errors.New("qma: DSMEScenario.Topology is required")
	case s.DurationSeconds <= 0:
		return errors.New("qma: DSMEScenario.DurationSeconds must be positive")
	case s.WarmupSeconds < 0 || s.WarmupSeconds >= s.DurationSeconds:
		return fmt.Errorf("qma: WarmupSeconds=%v out of [0, duration)", s.WarmupSeconds)
	case s.Table < TableFloat || s.Table > TableQuant:
		return fmt.Errorf("qma: unknown table kind %d", s.Table)
	}
	return s.MAC.validate()
}

// Run executes the scenario and returns its metrics.
func (s *DSMEScenario) Run() (*DSMEResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg := dsme.ScenarioConfig{
		Network:         s.Topology.net,
		MAC:             s.MAC.kind(),
		Seed:            s.Seed,
		Duration:        sim.FromSeconds(s.DurationSeconds),
		Warmup:          sim.FromSeconds(s.WarmupSeconds),
		BroadcastPeriod: sim.FromSeconds(s.BroadcastPeriodSeconds),
	}
	if s.MAC.canonical() == QMA {
		cfg.MACOptions = core.Options{Learn: s.Learn.internal(), Table: core.TableKind(s.Table)}
	}
	for _, p := range s.Phases {
		cfg.Phases = append(cfg.Phases, traffic.Phase{Rate: p.Rate, Duration: sim.FromSeconds(p.Seconds)})
	}
	res := dsme.RunScenario(cfg)
	return &DSMEResult{
		SecondaryPDR:         res.Metrics.SecondaryPDR(),
		RequestSuccess:       res.Metrics.RequestSuccessRatio(),
		AllocationsPerSecond: res.AllocationsPerSecond,
		PrimaryPDR:           res.Metrics.PrimaryPDR(),
		PrimaryDelaySeconds:  res.Metrics.PrimaryMeanDelay(),
		DuplicateAllocations: res.Metrics.Duplicates,
		SlotsOwned:           res.SlotsOwned,
	}, nil
}
