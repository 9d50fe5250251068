package noma

import (
	"strings"
	"testing"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/qlearn"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

type rig struct {
	k       *sim.Kernel
	m       *radio.Medium
	clock   *superframe.Clock
	engines []*Engine
}

// newRig wires n noma engines over an explicit graph. startupSubslots large
// keeps the engines in cautious startup (observation only), which the forced
// capture tests use to stage deterministic transmissions.
func newRig(t *testing.T, links [][2]int, n int, opts Options, startupSubslots int) *rig {
	t.Helper()
	g := radio.NewGraphTopology(n)
	for _, l := range links {
		g.AddLink(frame.NodeID(l[0]), frame.NodeID(l[1]))
	}
	k := sim.NewKernel()
	m := radio.NewMedium(k, g, sim.NewRand(7))
	clock := superframe.NewClock(superframe.DefaultConfig())
	r := &rig{k: k, m: m, clock: clock}
	for i := 0; i < n; i++ {
		e := New(Config{
			MAC:             mac.Config{ID: frame.NodeID(i), Kernel: k, Medium: m, Clock: clock},
			Levels:          opts.Levels,
			LevelStepDB:     opts.LevelStepDB,
			Learn:           opts.Learn,
			Explorer:        opts.Explorer,
			Rng:             sim.NewRandStream(7, uint64(i)),
			StartupSubslots: startupSubslots,
			StartupPunish:   true,
		})
		r.engines = append(r.engines, e)
		m.Attach(frame.NodeID(i), e)
		e.Start()
	}
	return r
}

func dataTo(dst, src frame.NodeID, seq uint32) *frame.Frame {
	return &frame.Frame{Kind: frame.Data, Src: src, Dst: dst, Origin: src, Sink: dst, Seq: seq, MPDUBytes: 40}
}

// TestCaptureSharingDeterministic stages the headline NOMA behaviour with no
// randomness: hidden-node pair 0 and 2 transmit simultaneously in the same
// subslot at different power levels towards 1. With capture enabled the
// level-0 frame decodes (delivered despite the overlap), 0 is ACKed, and 2's
// failure is softened to RewardCapturedOver by the overheard foreign ACK.
func TestCaptureSharingDeterministic(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}, {1, 2}}, 3, Options{Levels: 2, LevelStepDB: 6}, 1<<20)
	r.m.SetCaptureThreshold(6)

	r.engines[0].Enqueue(dataTo(1, 0, 1))
	r.engines[2].Enqueue(dataTo(1, 2, 1))

	at := r.clock.SubslotStart(0, 5)
	sendAt := func(e *Engine, level int) {
		r.k.At(at, func() { e.execute(5, e.action(Send, level)) })
	}
	sendAt(r.engines[0], 0)
	sendAt(r.engines[2], 1)
	r.k.Run(at + 10*sim.Millisecond)

	if got := r.engines[1].Base().Stats().Delivered; got != 1 {
		t.Fatalf("sink delivered %d frames, want 1 (the captured level-0 frame)", got)
	}
	if got := r.m.Stats(1).RxCaptured; got != 1 {
		t.Fatalf("RxCaptured = %d, want 1: the delivery must have happened under overlap", got)
	}
	if s := r.engines[0].Base().Stats(); s.TxSuccess != 1 || s.TxFail != 0 {
		t.Errorf("strong sender stats: %+v", s)
	}
	weak := r.engines[2]
	if s := weak.Base().Stats(); s.TxFail != 1 {
		t.Errorf("weak sender stats: %+v", s)
	}
	if es := weak.EngineStats(); es.CapturedOver != 1 {
		t.Errorf("weak sender engine stats: %+v, want CapturedOver=1", es)
	}
	// The softened reward must actually have reached the Q-table: the
	// (subslot 5, Send level 1) entry moved to the captured-over target, not
	// the full send-failure target.
	q := weak.Learner().Table().Q(5, weak.action(Send, 1))
	params := qlearn.DefaultParams()
	wantSoft := (1-params.Alpha)*params.InitQ + params.Alpha*(RewardCapturedOver+params.Gamma*params.InitQ)
	wantHard := (1-params.Alpha)*params.InitQ + params.Alpha*(RewardSendFail+params.Gamma*params.InitQ)
	if q != wantSoft {
		t.Errorf("Q(5, Send@1) = %v, want the captured-over target %v (full-failure target would be %v)",
			q, wantSoft, wantHard)
	}
}

// TestCaptureOffBothFail is the control: same staging without capture — the
// overlap kills both frames and no captured-over relief applies (no ACK
// exists to overhear).
func TestCaptureOffBothFail(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}, {1, 2}}, 3, Options{Levels: 2, LevelStepDB: 6}, 1<<20)
	r.engines[0].Enqueue(dataTo(1, 0, 1))
	r.engines[2].Enqueue(dataTo(1, 2, 1))
	at := r.clock.SubslotStart(0, 5)
	r.k.At(at, func() { r.engines[0].execute(5, r.engines[0].action(Send, 0)) })
	r.k.At(at, func() { r.engines[2].execute(5, r.engines[2].action(Send, 1)) })
	r.k.Run(at + 10*sim.Millisecond)

	if got := r.engines[1].Base().Stats().Delivered; got != 0 {
		t.Fatalf("sink delivered %d frames without capture, want 0", got)
	}
	for _, i := range []int{0, 2} {
		if s := r.engines[i].Base().Stats(); s.TxFail != 1 {
			t.Errorf("sender %d stats: %+v, want TxFail=1", i, s)
		}
		if es := r.engines[i].EngineStats(); es.CapturedOver != 0 {
			t.Errorf("sender %d: CapturedOver=%d, want 0", i, es.CapturedOver)
		}
	}
}

// TestSuccessBonusPerLevel pins the power-aware success reward: an
// uncontested reduced-level transmission earns the level bonus on top of the
// send-success reward.
func TestSuccessBonusPerLevel(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, Options{Levels: 3, LevelStepDB: 6}, 1<<20)
	r.engines[0].Enqueue(dataTo(1, 0, 1))
	at := r.clock.SubslotStart(0, 3)
	r.k.At(at, func() { r.engines[0].execute(3, r.engines[0].action(Send, 2)) })
	r.k.Run(at + 10*sim.Millisecond)

	e := r.engines[0]
	if s := e.Base().Stats(); s.TxSuccess != 1 {
		t.Fatalf("stats: %+v, want one success", s)
	}
	es := e.EngineStats()
	if es.SuccessByLevel[2] != 1 {
		t.Errorf("SuccessByLevel = %v, want level 2 credited", es.SuccessByLevel)
	}
	params := qlearn.DefaultParams()
	want := (1-params.Alpha)*params.InitQ + params.Alpha*(RewardSendSuccess+2*LevelSuccessBonus+params.Gamma*params.InitQ)
	if q := e.Learner().Table().Q(3, e.action(Send, 2)); q != want {
		t.Errorf("Q(3, Send@2) = %v, want %v", q, want)
	}
}

// TestEndToEndDelivery runs the engine autonomously (default startup,
// parameter-based exploration) on an idle channel: every queued frame must
// eventually be delivered.
func TestEndToEndDelivery(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, Options{}, 0)
	for i := 0; i < 20; i++ {
		f := dataTo(1, 0, uint32(i+1))
		r.k.Schedule(sim.Time(i)*100*sim.Millisecond, func() { r.engines[0].Enqueue(f) })
	}
	r.k.Run(10 * sim.Second)
	if s := r.engines[0].Base().Stats(); s.TxSuccess != 20 {
		t.Fatalf("stats: %+v, want 20 successes", s)
	}
	if got := r.engines[1].Base().Stats().Delivered; got != 20 {
		t.Fatalf("receiver delivered %d, want 20", got)
	}
}

// TestActionSpaceRoundTrip pins the kind/level flattening.
func TestActionSpaceRoundTrip(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}}, 2, Options{Levels: 3}, 0)
	e := r.engines[0]
	if e.actions != 9 {
		t.Fatalf("K=3 action space is %d, want 9", e.actions)
	}
	seen := map[int]bool{}
	for _, k := range []Kind{Backoff, CCA, Send} {
		for level := 0; level < 3; level++ {
			a := e.action(k, level)
			if e.kindOf(a) != k || e.levelOf(a) != level {
				t.Errorf("action(%v,%d)=%d round-trips to (%v,%d)", k, level, a, e.kindOf(a), e.levelOf(a))
			}
			seen[a] = true
		}
	}
	if len(seen) != 9 {
		t.Errorf("flattening collided: %d distinct actions, want 9", len(seen))
	}
	if e.ReduceDB(2) != 2*DefaultLevelStepDB {
		t.Errorf("ReduceDB(2) = %v", e.ReduceDB(2))
	}
}

// TestCCAActionTransmitsOnIdleAndBacksOffOnBusy pins the CCA kind of the
// extended action space: on an idle channel a forced (CCA, level) action
// transmits at the level's power; with a neighbour mid-transmission the CCA
// reports busy, nothing is sent, and the action's Q-entry takes the
// RewardCCABusy update.
func TestCCAActionTransmitsOnIdleAndBacksOffOnBusy(t *testing.T) {
	r := newRig(t, [][2]int{{0, 1}, {1, 2}}, 3, Options{Levels: 2, LevelStepDB: 6}, 1<<20)
	e := r.engines[0]
	e.Enqueue(dataTo(1, 0, 1))
	at := r.clock.SubslotStart(0, 4)
	r.k.At(at, func() { e.execute(4, e.action(CCA, 1)) })
	r.k.Run(at + 10*sim.Millisecond)
	if s := e.Base().Stats(); s.TxSuccess != 1 {
		t.Fatalf("idle-channel CCA action: %+v, want one success", s)
	}
	if es := e.EngineStats(); es.KindCount[CCA] != 1 || es.LevelCount[1] != 1 {
		t.Errorf("engine stats %+v, want one CCA at level 1", es)
	}

	// Busy case: the neighbour transmits across the CCA window, so the
	// assessment at 0 reports busy.
	r2 := newRig(t, [][2]int{{0, 1}, {1, 2}}, 3, Options{Levels: 2, LevelStepDB: 6}, 1<<20)
	e2 := r2.engines[0]
	e2.Enqueue(dataTo(1, 0, 1))
	jam := &frame.Frame{Kind: frame.Data, Src: 1, Dst: frame.Broadcast, MPDUBytes: 60}
	at2 := r2.clock.SubslotStart(0, 4)
	r2.k.At(at2, func() { r2.m.StartTX(1, jam, 0) })
	r2.k.At(at2, func() { e2.execute(4, e2.action(CCA, 0)) })
	r2.k.Run(at2 + 10*sim.Millisecond)
	if s := e2.Base().Stats(); s.TxAttempts != 0 {
		t.Fatalf("busy-channel CCA action transmitted anyway: %+v", s)
	}
	params := qlearn.DefaultParams()
	want := (1-params.Alpha)*params.InitQ + params.Alpha*(RewardCCABusy+params.Gamma*params.InitQ)
	if q := e2.Learner().Table().Q(4, e2.action(CCA, 0)); q != want {
		t.Errorf("Q(4, CCA@0) = %v, want the CCA-busy target %v", q, want)
	}
}

// TestNewFromOptionsThroughRegistry pins the registry construction path and
// the scenario-level startup convention (0 = default, negative = disabled).
func TestNewFromOptionsThroughRegistry(t *testing.T) {
	g := radio.NewGraphTopology(2)
	g.AddLink(0, 1)
	k := sim.NewKernel()
	m := radio.NewMedium(k, g, sim.NewRand(1))
	clock := superframe.NewClock(superframe.DefaultConfig())
	cfg := mac.Config{ID: 0, Kernel: k, Medium: m, Clock: clock, MaxRetries: -1}

	eng, err := mac.Build(Proto, cfg, Options{Levels: 3, StartupSubslots: -1}, sim.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	e := eng.(*Engine)
	if e.Levels() != 3 {
		t.Errorf("Levels() = %d, want 3", e.Levels())
	}
	if e.startupLeft != 0 {
		t.Errorf("negative StartupSubslots must disable cautious startup, got %d", e.startupLeft)
	}
	if e.Learner().Table().Actions() != NumKinds*3 {
		t.Errorf("table actions = %d, want %d", e.Learner().Table().Actions(), NumKinds*3)
	}

	if _, err := mac.Build(Proto, mac.Config{ID: 1, Kernel: k, Medium: m, Clock: clock}, Options{Levels: 99}, sim.NewRand(3)); err == nil {
		t.Error("Build accepted out-of-range Levels")
	}
}

// TestKindString pins the action-kind stringer used in logs and tables.
func TestKindString(t *testing.T) {
	for kind, want := range map[Kind]string{Backoff: "Backoff", CCA: "CCA", Send: "Send", Kind(7): "Kind(7)"} {
		if got := kind.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(kind), got, want)
		}
	}
}

// TestRegistry pins the protocol's registry contract.
func TestRegistry(t *testing.T) {
	p, ok := mac.Lookup(Proto)
	if !ok {
		t.Fatal("noma is not registered")
	}
	if !p.NeedsCapture {
		t.Error("noma must declare NeedsCapture (capture-less comparison families skip it)")
	}
	if alias, ok := mac.Lookup("noma-ql"); !ok || alias.Name != Proto {
		t.Error("alias noma-ql does not resolve to noma")
	}
	if err := p.Validate(Options{Levels: MaxLevels + 1}); err == nil {
		t.Error("Validate accepted Levels beyond MaxLevels")
	}
	if err := p.Validate(Options{LevelStepDB: -3}); err == nil {
		t.Error("Validate accepted a negative step")
	}
	if err := p.Validate(struct{}{}); err == nil {
		t.Error("Validate accepted foreign options")
	}
	if err := p.Validate(nil); err != nil {
		t.Errorf("Validate rejected nil options: %v", err)
	}
}

// TestParseOptions pins the -mac-opt surface.
func TestParseOptions(t *testing.T) {
	p, _ := mac.Lookup(Proto)
	got, err := p.ParseOptions(map[string]string{"levels": "3", "step": "4.5", "alpha": "0.25"})
	if err != nil {
		t.Fatal(err)
	}
	o := got.(Options)
	if o.Levels != 3 || o.LevelStepDB != 4.5 {
		t.Errorf("parsed %+v", o)
	}
	if o.Learn.Alpha != 0.25 || o.Learn.Gamma != qlearn.DefaultParams().Gamma {
		t.Errorf("partial learn override drifted from defaults: %+v", o.Learn)
	}
	if _, err := p.ParseOptions(map[string]string{"power": "11"}); err == nil ||
		!strings.Contains(err.Error(), "levels") {
		t.Errorf("unknown key error %v should list supported keys", err)
	}
	if _, err := p.ParseOptions(map[string]string{"levels": "two"}); err == nil {
		t.Error("malformed integer accepted")
	}
}

// TestAdoptExplorer pins the scenario-level explorer pass-through.
func TestAdoptExplorer(t *testing.T) {
	p, _ := mac.Lookup(Proto)
	ex := qlearn.Constant{Eps: 0.2}
	o := p.AdoptExplorer(nil, ex).(Options)
	if o.Explorer != ex {
		t.Errorf("AdoptExplorer(nil) = %+v", o)
	}
	prior := qlearn.Constant{Eps: 0.9}
	o = p.AdoptExplorer(Options{Explorer: prior}, ex).(Options)
	if o.Explorer != prior {
		t.Error("AdoptExplorer overrode an explorer already present in the options")
	}
}
