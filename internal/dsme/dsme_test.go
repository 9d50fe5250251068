package dsme

import (
	"testing"
	"testing/quick"

	"qma/internal/barring"
	"qma/internal/scenario"
	"qma/internal/sim"
	"qma/internal/superframe"
	"qma/internal/topo"
	"qma/internal/traffic"
)

func TestSlotMapStates(t *testing.T) {
	cfg := superframe.DefaultConfig()
	m := NewSlotMap(cfg)
	g := superframe.GTS{Superframe: 1, Slot: 3, Channel: 7}

	if m.State(g) != SlotFree {
		t.Fatalf("initial state = %v, want free", m.State(g))
	}
	m.Set(g, SlotTX, 4)
	if m.State(g) != SlotTX || m.Peer(g) != 4 {
		t.Fatalf("after Set: state=%v peer=%d", m.State(g), m.Peer(g))
	}
	// MarkNeighbor must not overwrite ownership.
	m.MarkNeighbor(g, 5*sim.Second)
	if m.State(g) != SlotTX {
		t.Fatalf("MarkNeighbor overwrote owned slot: %v", m.State(g))
	}
	if m.Count(SlotTX) != 1 || len(m.Owned(SlotTX)) != 1 || m.Owned(SlotTX)[0] != g {
		t.Fatalf("Count/Owned inconsistent")
	}
	m.Clear(g)
	if m.State(g) != SlotFree || m.Peer(g) != -1 {
		t.Fatalf("Clear failed: %v %d", m.State(g), m.Peer(g))
	}
}

func TestSlotMapPickFree(t *testing.T) {
	cfg := superframe.DefaultConfig()
	m := NewSlotMap(cfg)
	total := cfg.GTSPerMultiframe()

	// Fill every slot except one; any pick index must return it.
	keep := superframe.GTS{Superframe: 0, Slot: 4, Channel: 9}
	for i := 0; i < total; i++ {
		g := superframe.GTSFromIndex(cfg, i)
		if g != keep {
			m.Set(g, SlotNeighbor, -1)
		}
	}
	for _, n := range []int{0, 1, 7, -3, 1 << 19} {
		g, ok := m.PickFree(n)
		if !ok || g != keep {
			t.Fatalf("PickFree(%d) = %v/%v, want %v", n, g, ok, keep)
		}
	}
	m.Set(keep, SlotTX, 1)
	if _, ok := m.PickFree(0); ok {
		t.Fatal("PickFree on a full map reported a free slot")
	}
}

func TestSlotMapPickFreeProperty(t *testing.T) {
	cfg := superframe.DefaultConfig()
	prop := func(occupied []uint16, pick int16) bool {
		m := NewSlotMap(cfg)
		for _, o := range occupied {
			m.Set(superframe.GTSFromIndex(cfg, int(o)%cfg.GTSPerMultiframe()), SlotNeighbor, -1)
		}
		g, ok := m.PickFree(int(pick))
		if !ok {
			return m.Count(SlotFree) == 0
		}
		return m.State(g) == SlotFree
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// twoNodeConfig wires one child streaming to the sink.
func twoNodeConfig(mk scenario.MACKind, seed uint64) ScenarioConfig {
	net := topo.HiddenNode() // A and C stream to B over GTS
	return ScenarioConfig{
		Network:  net,
		MAC:      mk,
		Seed:     seed,
		Duration: 180 * sim.Second,
		Warmup:   60 * sim.Second,
		Phases:   []traffic.Phase{{Rate: 5}},
	}
}

func TestGTSAllocationAndDataDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	res := RunScenario(twoNodeConfig(scenario.QMA, 1))
	// Both leaves must end up owning TX slots.
	if res.SlotsOwned[0] == 0 || res.SlotsOwned[2] == 0 {
		t.Fatalf("slots owned = %v, want both leaves > 0", res.SlotsOwned)
	}
	// Primary data flows through the allocated GTS.
	m := res.Metrics
	if m.PrimaryGenerated == 0 {
		t.Fatal("no primary packets generated")
	}
	if pdr := m.PrimaryPDR(); pdr < 0.9 {
		t.Errorf("primary PDR = %.3f, want >= 0.9 (δ=5 is far below GTS capacity)", pdr)
	}
	// Handshakes completed.
	var completed uint64
	for _, ns := range res.Nodes {
		completed += ns.AllocCompleted
	}
	if completed == 0 {
		t.Error("no allocation handshake completed")
	}
	t.Logf("slots=%v primaryPDR=%.3f secondaryPDR=%.3f allocs/s=%.2f",
		res.SlotsOwned, m.PrimaryPDR(), m.SecondaryPDR(), res.AllocationsPerSecond)
}

func TestGTSDeallocationOnTrafficDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	cfg := twoNodeConfig(scenario.QMA, 2)
	// Traffic bursts then goes silent; nodes must give slots back.
	cfg.Phases = []traffic.Phase{{Rate: 20, Duration: 30 * sim.Second}, {Rate: 0, Duration: 90 * sim.Second}}
	cfg.Duration = 180 * sim.Second
	res := RunScenario(cfg)
	var dealloc uint64
	for _, ns := range res.Nodes {
		dealloc += ns.DeallocCompleted
	}
	if dealloc == 0 {
		t.Errorf("no deallocation completed despite traffic dropping to zero (slots=%v)", res.SlotsOwned)
	}
}

func TestRings7SecondaryTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	run := func(mk scenario.MACKind) *ScenarioResult {
		return RunScenario(ScenarioConfig{
			Network:  topo.Rings(1),
			MAC:      mk,
			Seed:     3,
			Duration: 240 * sim.Second,
			Warmup:   90 * sim.Second,
		})
	}
	qma := run(scenario.QMA)
	csma := run(scenario.CSMAUnslotted)

	t.Logf("QMA : secondary=%.3f req=%.3f allocs/s=%.2f primary=%.3f",
		qma.Metrics.SecondaryPDR(), qma.Metrics.RequestSuccessRatio(),
		qma.AllocationsPerSecond, qma.Metrics.PrimaryPDR())
	t.Logf("CSMA: secondary=%.3f req=%.3f allocs/s=%.2f primary=%.3f",
		csma.Metrics.SecondaryPDR(), csma.Metrics.RequestSuccessRatio(),
		csma.AllocationsPerSecond, csma.Metrics.PrimaryPDR())

	if qma.Metrics.RequestsSent == 0 || csma.Metrics.RequestsSent == 0 {
		t.Fatal("no GTS requests were sent")
	}
	// Fig. 21: QMA's secondary PDR exceeds CSMA/CA's.
	if qma.Metrics.SecondaryPDR() < csma.Metrics.SecondaryPDR()-0.02 {
		t.Errorf("QMA secondary PDR %.3f below CSMA %.3f",
			qma.Metrics.SecondaryPDR(), csma.Metrics.SecondaryPDR())
	}
}

func TestScenarioDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	a := RunScenario(twoNodeConfig(scenario.QMA, 9))
	b := RunScenario(twoNodeConfig(scenario.QMA, 9))
	if a.Metrics != b.Metrics {
		t.Errorf("metrics differ between identical runs:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Errorf("node %d stats differ:\n%+v\n%+v", i, a.Nodes[i], b.Nodes[i])
		}
	}
}

func TestScenarioBudgetAndInvariantChecks(t *testing.T) {
	for _, mk := range []scenario.MACKind{scenario.QMA, scenario.CSMASlotted, scenario.CSMAUnslotted} {
		t.Run(string(mk), func(t *testing.T) {
			// A tiny event budget truncates the run and says so.
			cfg := twoNodeConfig(mk, 3)
			cfg.EventBudget = 500
			if res := RunScenario(cfg); !res.Truncated {
				t.Fatal("500-event budget did not truncate a 180 s DSME run")
			}
			// With the kernel, medium and frame-pool checkers armed and no
			// budget, a short run completes cleanly and is not marked
			// truncated.
			clean := twoNodeConfig(mk, 3)
			clean.Duration = 30 * sim.Second
			clean.Warmup = 10 * sim.Second
			clean.InvariantChecks = true
			if res := RunScenario(clean); res.Truncated {
				t.Error("unbudgeted run reports truncation")
			}
		})
	}
}

// TestCAPEnginesSendOnce pins the CAP retry count: DSME's CAP engines send
// each frame once (NR = 0), unlike Run's engines, which default to 3.
func TestCAPEnginesSendOnce(t *testing.T) {
	for _, mk := range []scenario.MACKind{scenario.QMA, scenario.CSMASlotted, scenario.CSMAUnslotted} {
		r := buildScenario(twoNodeConfig(mk, 1))
		for i, node := range r.nodes {
			if got := node.CAP().Base().MaxRetries(); got != 0 {
				t.Errorf("%s: node %d CAP engine runs NR=%d, want 0", mk, i, got)
			}
		}
	}
}

// TestScenarioBarring drives the DSME wiring of the access-barring loop.
// DSME carries its primary data over GTS, so the CAP rarely congests enough
// for AIMD to close admission — a fixed low factor instead exercises the
// full path (sink beacon push → per-node gate RNG → Barred counters)
// deterministically, and a disabled config must count nothing.
func TestScenarioBarring(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	overloaded := func(b barring.Config, seed uint64) ScenarioConfig {
		cfg := twoNodeConfig(scenario.QMA, seed)
		cfg.Duration = 90 * sim.Second
		cfg.Warmup = 30 * sim.Second
		cfg.Phases = []traffic.Phase{{Rate: 20}}
		cfg.Barring = b
		return cfg
	}
	barred := RunScenario(overloaded(barring.Config{Policy: barring.PolicyFixed, P: 0.25}, 4))
	var total uint64
	for _, s := range barred.CAP {
		total += s.Barred
	}
	if total == 0 {
		t.Error("fixed barring at P=0.25 never barred a CAP attempt")
	}
	again := RunScenario(overloaded(barring.Config{Policy: barring.PolicyFixed, P: 0.25}, 4))
	for i := range barred.CAP {
		if barred.CAP[i] != again.CAP[i] {
			t.Errorf("node %d: identical barred DSME runs diverged:\n%+v\n%+v", i, barred.CAP[i], again.CAP[i])
		}
	}
	// A disabled config counts nothing: the gate is never consulted.
	off := RunScenario(overloaded(barring.Config{}, 4))
	for i, s := range off.CAP {
		if s.Barred != 0 {
			t.Errorf("node %d: disabled barring still barred %d attempts", i, s.Barred)
		}
	}
}

// TestArenaFramePoolStaysBounded pins that replications sharing one
// scenario.Arena recycle the GTS command frames through its frame pool
// instead of feeding it fresh ones: back-to-back identical runs leave the
// pool at the same size, so a long sweep's memory stays flat.
func TestArenaFramePoolStaysBounded(t *testing.T) {
	arena := scenario.NewArena()
	var sizes []int
	for range 3 {
		cfg := twoNodeConfig(scenario.QMA, 5)
		cfg.Arena = arena
		RunScenario(cfg)
		pool, _ := arena.Begin()
		sizes = append(sizes, pool.Size())
	}
	t.Logf("pool sizes after each run: %v", sizes)
	if sizes[2] != sizes[1] {
		t.Errorf("frame pool grew from run to run: %v", sizes)
	}
}
