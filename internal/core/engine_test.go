package core

import (
	"testing"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// rig wires QMA engines over an explicit graph.
type rig struct {
	k       *sim.Kernel
	m       *radio.Medium
	clock   *superframe.Clock
	engines []*Engine
}

func newRig(t *testing.T, links [][2]int, n int, mut func(i int, c *Config)) *rig {
	t.Helper()
	g := radio.NewGraphTopology(n)
	for _, l := range links {
		g.AddLink(frame.NodeID(l[0]), frame.NodeID(l[1]))
	}
	k := sim.NewKernel()
	m := radio.NewMedium(k, g, sim.NewRand(42))
	clock := superframe.NewClock(superframe.DefaultConfig())
	r := &rig{k: k, m: m, clock: clock}
	for i := 0; i < n; i++ {
		cfg := Config{
			MAC: mac.Config{
				ID:         frame.NodeID(i),
				Kernel:     k,
				Medium:     m,
				Clock:      clock,
				MaxRetries: -1, // no retransmissions
			},
			Rng:             sim.NewRandStream(42, uint64(i)),
			StartupSubslots: -1, // disabled unless a test enables it
		}
		if mut != nil {
			mut(i, &cfg)
		}
		e := New(cfg)
		r.engines = append(r.engines, e)
		m.Attach(frame.NodeID(i), e)
		e.Start()
	}
	return r
}

func dataTo(dst frame.NodeID, src frame.NodeID, seq uint32) *frame.Frame {
	return &frame.Frame{Kind: frame.Data, Src: src, Dst: dst, Origin: src, Sink: dst, Seq: seq, MPDUBytes: 40}
}

func TestIdleEngineTakesNoActions(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, nil)
	r.k.Run(2 * sim.Second)
	st := r.engines[0].EngineStats()
	if st.Decisions != 0 {
		t.Errorf("decisions = %d with an empty queue, want 0 (Algorithm 1 gate)", st.Decisions)
	}
	if r.engines[0].Learner().Updates() != 0 {
		t.Errorf("%d Q-updates without traffic", r.engines[0].Learner().Updates())
	}
}

func TestSingleNodeLearnsToTransmit(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, nil)
	for i := 0; i < 50; i++ {
		r.engines[0].Enqueue(dataTo(1, 0, uint32(i+1)))
		r.k.Run(r.k.Now() + 500*sim.Millisecond)
	}
	st := r.engines[0].Base().Stats()
	if st.TxSuccess == 0 {
		t.Fatalf("no successful transmissions: %+v", st)
	}
	// After learning, some subslot's policy must be a transmit action.
	pol := r.engines[0].Learner().PolicySnapshot()
	tx := 0
	for _, a := range pol {
		if a != int(QBackoff) {
			tx++
		}
	}
	if tx == 0 {
		t.Error("policy still all-QBackoff after 50 successful rounds")
	}
}

func TestCautiousStartupObservesAndPunishes(t *testing.T) {
	var observer *Engine
	r := newRig(t, [][2]int{{0, 1}, {1, 2}}, 3, func(i int, c *Config) {
		if i == 2 {
			c.StartupSubslots = 108
			c.StartupPunish = true
		}
	})
	observer = r.engines[2]
	// Node 0 streams to node 1; node 2 overhears node 1's ACKs.
	for i := 0; i < 20; i++ {
		r.engines[0].Enqueue(dataTo(1, 0, uint32(i+1)))
	}
	r.k.Run(3 * sim.Second)

	st := observer.EngineStats()
	if st.StartupObservations == 0 {
		t.Fatal("no startup observations recorded")
	}
	if st.Decisions != 0 {
		t.Errorf("observer made %d decisions during pure observation", st.Decisions)
	}
	// Subslots with overheard traffic: QBackoff rewarded above the initial
	// -10 and QCCA/QSend punished below it.
	tbl := observer.Learner().Table()
	rewarded, punished := 0, 0
	for m := 0; m < tbl.States(); m++ {
		if tbl.Q(m, int(QBackoff)) > -10 {
			rewarded++
		}
		if tbl.Q(m, int(QSend)) < -10 {
			punished++
		}
	}
	if rewarded == 0 || punished == 0 {
		t.Errorf("startup learned nothing: rewarded=%d punished=%d", rewarded, punished)
	}
}

func TestRewardConstantsMatchTable4(t *testing.T) {
	// Eq. 6-8 / Tbl. 4 exact values.
	if RewardBackoffOverhear != 2 || RewardBackoffIdle != 0 {
		t.Error("QBackoff rewards deviate from Eq. 6")
	}
	if RewardCCASuccessTx != 3 || RewardCCAFailedTx != -2 || RewardCCABusy != 1 {
		t.Error("QCCA rewards deviate from Eq. 7")
	}
	if RewardSendSuccess != 4 || RewardSendFail != -3 {
		t.Error("QSend rewards deviate from Eq. 8")
	}
	// Tbl. 4 global-reward consistency: B S B = 2+4+2 = 8 etc.
	if RewardBackoffOverhear+RewardSendSuccess+RewardBackoffOverhear != 8 {
		t.Error("global reward for B/S/B should be 8")
	}
	if RewardSendFail*3 != -9 {
		t.Error("global reward for S/S/S should be -9")
	}
}

func TestTwoContendersSeparate(t *testing.T) {
	// Full graph: 0 and 2 both stream to 1 and can hear each other — they
	// must learn disjoint transmit subslots.
	r := newRig(t, [][2]int{{0, 1}, {1, 2}, {0, 2}}, 3, nil)
	seq := uint32(0)
	for round := 0; round < 200; round++ {
		seq++
		r.engines[0].Enqueue(dataTo(1, 0, seq))
		r.engines[2].Enqueue(dataTo(1, 2, seq))
		r.k.Run(r.k.Now() + 200*sim.Millisecond)
	}
	p0 := r.engines[0].Learner().PolicySnapshot()
	p2 := r.engines[2].Learner().PolicySnapshot()
	conflicts, tx0, tx2 := 0, 0, 0
	for m := range p0 {
		a0 := p0[m] != int(QBackoff)
		a2 := p2[m] != int(QBackoff)
		if a0 {
			tx0++
		}
		if a2 {
			tx2++
		}
		if a0 && a2 {
			conflicts++
		}
	}
	if tx0 == 0 || tx2 == 0 {
		t.Fatalf("nodes claimed no subslots (tx0=%d tx2=%d)", tx0, tx2)
	}
	if conflicts > 1 {
		t.Errorf("%d conflicting subslots, want <= 1 (cooperative separation)", conflicts)
	}
	// And both should actually deliver.
	for _, id := range []int{0, 2} {
		st := r.engines[id].Base().Stats()
		if float64(st.TxSuccess) < 0.7*float64(st.TxAttempts) {
			t.Errorf("node %d: only %d/%d attempts succeeded", id, st.TxSuccess, st.TxAttempts)
		}
	}
}

func TestEngineRejectsBadConfig(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"no rng":          func(c *Config) { c.Rng = nil },
		"no clock":        func(c *Config) { c.MAC.Clock = nil },
		"overhear owned":  func(c *Config) { c.MAC.OnOverhear = func(*frame.Frame) {} },
		"table dimension": func(c *Config) { c.Table = qlearn.NewFloatTable(3, 3, qlearn.DefaultParams()) },
	} {
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel()
			g := radio.NewGraphTopology(1)
			cfg := Config{
				MAC: mac.Config{Kernel: k, Medium: radio.NewMedium(k, g, sim.NewRand(1)),
					Clock: superframe.NewClock(superframe.DefaultConfig())},
				Rng: sim.NewRand(1),
			}
			mut(&cfg)
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			New(cfg)
		})
	}
}

func TestActionStringAndCounts(t *testing.T) {
	if QBackoff.String() != "QBackoff" || QCCA.String() != "QCCA" || QSend.String() != "QSend" {
		t.Error("action names wrong")
	}
	r := newRig(t, [][2]int{{0, 1}}, 2, nil)
	for i := 0; i < 30; i++ {
		r.engines[0].Enqueue(dataTo(1, 0, uint32(i+1)))
		r.k.Run(r.k.Now() + 300*sim.Millisecond)
	}
	counts := r.engines[0].ActionCounts()
	var total uint64
	for _, row := range counts {
		for _, c := range row {
			total += c
		}
	}
	st := r.engines[0].EngineStats()
	if total != st.ActionCount[0]+st.ActionCount[1]+st.ActionCount[2] {
		t.Errorf("per-subslot counts (%d) disagree with totals (%v)", total, st.ActionCount)
	}
	r.engines[0].ResetActionCounts()
	for _, row := range r.engines[0].ActionCounts() {
		if row != [NumActions]uint64{} {
			t.Fatal("ResetActionCounts left residue")
		}
	}
}

func TestRhoSampling(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, nil)
	for i := 0; i < 10; i++ {
		r.engines[0].Enqueue(dataTo(1, 0, uint32(i+1)))
	}
	r.k.Run(2 * sim.Second)
	mean, n := r.engines[0].TakeRhoSample()
	if n == 0 {
		t.Fatal("no rho samples despite decisions")
	}
	if mean < 0 || mean > 0.3 {
		t.Errorf("mean rho = %v outside the Fig. 4 range", mean)
	}
	// Second sample starts fresh.
	if _, n2 := r.engines[0].TakeRhoSample(); n2 != 0 {
		t.Errorf("sample window not reset (n=%d)", n2)
	}
}
