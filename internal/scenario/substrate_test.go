package scenario

import (
	"strings"
	"testing"

	"qma/internal/barring"
	"qma/internal/frame"
	"qma/internal/sim"
	"qma/internal/topo"
)

// TestSubstrateStreamLayout pins the random-stream layout: Stream(offset,
// id) is stream offset+id of the run seed, and the barring stream exists
// only when barring is configured.
func TestSubstrateStreamLayout(t *testing.T) {
	net := topo.HiddenNode()
	sub := NewSubstrate(Config{Seed: 9}, net.Topology)
	for _, c := range []struct {
		offset uint64
		id     frame.NodeID
	}{{0, 2}, {streamMedium, 0}, {StreamTraffic, 1}, {StreamTraffic + 500, 1}, {StreamBroadcast, 2}, {StreamDSME, 0}} {
		got, want := sub.Stream(c.offset, c.id), sim.NewRandStream(9, c.offset+uint64(c.id))
		for i := 0; i < 4; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("Stream(%d, %d) draw %d = %d, want %d", c.offset, c.id, i, g, w)
			}
		}
	}
	if sub.MACConfig(1).BarringRng != nil {
		t.Error("barring stream drawn without barring configured")
	}
	barred := NewSubstrate(Config{Seed: 9, Barring: barring.Config{Policy: barring.PolicyFixed, P: 0.5}}, net.Topology)
	got, want := barred.MACConfig(1).BarringRng, sim.NewRandStream(9, streamBarring+1)
	if got == nil || got.Uint64() != want.Uint64() {
		t.Error("barring-enabled MACConfig does not carry stream 4000+id")
	}
}

// TestSubstrateArmBarring pins the barring loop's two guards: a disabled
// config schedules nothing, an invalid one panics.
func TestSubstrateArmBarring(t *testing.T) {
	net := topo.HiddenNode()
	off := NewSubstrate(Config{}, net.Topology)
	off.ArmBarring(net.Sink, nil)
	if n := off.Kernel.Pending(); n != 0 {
		t.Errorf("disabled barring scheduled %d events", n)
	}
	on := NewSubstrate(Config{Barring: barring.Config{Policy: barring.PolicyFixed, P: 0.5}}, net.Topology)
	on.ArmBarring(net.Sink, nil)
	if n := on.Kernel.Pending(); n != 1 {
		t.Errorf("enabled barring scheduled %d events, want the first beacon tick", n)
	}
	bad := NewSubstrate(Config{Barring: barring.Config{Policy: barring.PolicyFixed, P: 2}}, net.Topology)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "scenario: barring:") {
			t.Errorf("invalid barring config: recovered %v, want a scenario: barring: panic", r)
		}
	}()
	bad.ArmBarring(net.Sink, nil)
}

// TestRetryConvention pins NR across the layers: Config.MaxRetries 0 runs
// the standard's 3 retransmissions, a negative value none.
func TestRetryConvention(t *testing.T) {
	for _, c := range []struct{ cfg, want int }{{0, 3}, {-1, 0}, {5, 5}} {
		cfg := hiddenNodeConfig(QMA, 1, 1)
		cfg.Duration = sim.Second
		cfg.MaxRetries = c.cfg
		for i, e := range RunWithEngines(cfg).Engines {
			if got := e.Base().MaxRetries(); got != c.want {
				t.Errorf("MaxRetries=%d: engine %d runs NR=%d, want %d", c.cfg, i, got, c.want)
			}
		}
	}
}
