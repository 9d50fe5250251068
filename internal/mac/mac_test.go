package mac

import (
	"math"
	"testing"

	"qma/internal/frame"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// rig wires two Bases over a 2-node link (plus an optional third hidden
// node) for direct MAC-layer tests.
type rig struct {
	k     *sim.Kernel
	m     *radio.Medium
	bases []*Base
}

func newRig(t *testing.T, n int, cfgs []Config) *rig {
	t.Helper()
	g := radio.NewGraphTopology(n)
	for i := 1; i < n; i++ {
		g.AddLink(0, frame.NodeID(i))
	}
	k := sim.NewKernel()
	m := radio.NewMedium(k, g, sim.NewRand(1))
	clock := superframe.NewClock(superframe.DefaultConfig())
	r := &rig{k: k, m: m}
	for i := 0; i < n; i++ {
		cfg := Config{ID: frame.NodeID(i), Kernel: k, Medium: m, Clock: clock}
		if i < len(cfgs) {
			c := cfgs[i]
			c.ID, c.Kernel, c.Medium, c.Clock = frame.NodeID(i), k, m, clock
			cfg = c
		}
		b := NewBase(cfg)
		r.bases = append(r.bases, b)
		m.Attach(frame.NodeID(i), b)
	}
	return r
}

func testData(src, dst frame.NodeID, seq uint32) *frame.Frame {
	return &frame.Frame{Kind: frame.Data, Src: src, Dst: dst, Origin: src, Sink: dst, Seq: seq, MPDUBytes: 30}
}

func TestUnicastIsAcknowledged(t *testing.T) {
	r := newRig(t, 2, nil)
	f := testData(0, 1, 1)
	var outcome *bool
	r.bases[0].Enqueue(f)
	r.bases[0].SendFrame(f, func(ok bool) { outcome = &ok })
	r.k.RunAll()
	if outcome == nil || !*outcome {
		t.Fatalf("unicast outcome = %v, want success", outcome)
	}
	s0, s1 := r.bases[0].Stats(), r.bases[1].Stats()
	if s0.TxAttempts != 1 || s0.TxSuccess != 1 || s0.TxFail != 0 {
		t.Errorf("sender stats: %+v", s0)
	}
	if s1.AcksSent != 1 || s1.Delivered != 1 {
		t.Errorf("receiver stats: %+v", s1)
	}
}

func TestUnicastWithoutReceiverTimesOut(t *testing.T) {
	r := newRig(t, 2, nil)
	f := testData(0, 5, 1) // destination does not exist
	var outcome *bool
	r.bases[0].Enqueue(f)
	at := r.k.Now()
	r.bases[0].SendFrame(f, func(ok bool) { outcome = &ok })
	r.k.RunAll()
	if outcome == nil || *outcome {
		t.Fatalf("outcome = %v, want failure", outcome)
	}
	// The node was busy exactly until the ACK deadline.
	if want := at + f.Duration() + frame.AckWait; r.bases[0].BusyUntil() != want {
		t.Errorf("BusyUntil = %v, want %v", r.bases[0].BusyUntil(), want)
	}
}

func TestBroadcastSucceedsWithoutAck(t *testing.T) {
	r := newRig(t, 3, nil)
	f := &frame.Frame{Kind: frame.RouteDiscovery, Src: 0, Dst: frame.Broadcast, Origin: 0, Sink: frame.Broadcast, Seq: 1, MPDUBytes: 30}
	var outcome *bool
	r.bases[0].Enqueue(f)
	r.bases[0].SendFrame(f, func(ok bool) { outcome = &ok })
	r.k.RunAll()
	if outcome == nil || !*outcome {
		t.Fatalf("broadcast outcome = %v, want optimistic success", outcome)
	}
	if r.bases[1].Stats().AcksSent != 0 {
		t.Error("broadcast was acknowledged")
	}
}

func TestFinishFrameRetryPolicy(t *testing.T) {
	r := newRig(t, 2, nil)
	b := r.bases[0]
	f := testData(0, 1, 1)
	b.Enqueue(f)
	// NR=3: three failures keep the frame, the fourth drops it.
	for i := 0; i < 3; i++ {
		if done := b.FinishFrame(f, false); done {
			t.Fatalf("frame dropped after %d failures", i+1)
		}
	}
	if done := b.FinishFrame(f, false); !done {
		t.Fatal("frame not dropped after NR+1 failures")
	}
	if st := b.Stats(); st.RetryDrops != 1 {
		t.Errorf("RetryDrops = %d, want 1", st.RetryDrops)
	}
	if !b.Queue().Empty() {
		t.Error("queue not empty after drop")
	}
}

func TestDoneCallbackFiresOnce(t *testing.T) {
	r := newRig(t, 2, nil)
	b := r.bases[0]
	f := testData(0, 1, 1)
	calls, lastOK := 0, true
	f.Done = func(ok bool) { calls++; lastOK = ok }
	b.Enqueue(f)
	for i := 0; i < 4; i++ {
		b.FinishFrame(f, false)
	}
	if calls != 1 || lastOK {
		t.Errorf("Done fired %d times (ok=%v), want once with false", calls, lastOK)
	}
}

func TestDuplicateRejection(t *testing.T) {
	r := newRig(t, 2, nil)
	delivered := 0
	cfg := Config{OnSinkDeliver: func(*frame.Frame) { delivered++ }}
	r = newRig(t, 2, []Config{{}, cfg})
	// Same (origin, seq) twice: second is a duplicate but still ACKed.
	r.bases[1].Deliver(testData(0, 1, 7))
	r.k.RunAll()
	r.bases[1].Deliver(testData(0, 1, 7))
	r.k.RunAll()
	st := r.bases[1].Stats()
	if st.Delivered != 1 || st.Duplicates != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.AcksSent != 2 {
		t.Errorf("AcksSent = %d, want 2 (duplicates are re-ACKed)", st.AcksSent)
	}
	if delivered != 1 {
		t.Errorf("sink deliveries = %d, want 1", delivered)
	}
}

// TestDuplicateRejectionUnderRetransmission drives the full ACK-loss round
// trip instead of injecting duplicates by hand: the data frame is delivered
// but its ACK is killed by a deep fade at the sender, the sender's retry
// policy retransmits the same frame, and the receiver must reject the copy
// as a duplicate while still re-ACKing it — so the retransmission succeeds
// and the frame finally leaves the queue, delivered exactly once.
func TestDuplicateRejectionUnderRetransmission(t *testing.T) {
	delivered := 0
	r := newRig(t, 2, []Config{{}, {OnSinkDeliver: func(*frame.Frame) { delivered++ }}})
	sender, receiver := r.bases[0], r.bases[1]

	f := testData(0, 1, 7)
	sender.Enqueue(f)

	outcomes := []bool{}
	var send func()
	send = func() {
		sender.SendFrame(f, func(success bool) {
			outcomes = append(outcomes, success)
			if sender.FinishFrame(f, success) {
				return
			}
			// Retry once the fade is over and the node is idle again.
			r.k.At(sender.BusyUntil()+5*sim.Millisecond, send)
		})
	}
	send()
	// The data frame delivers at its airtime end; fade the sender from just
	// after that until past the ACK arrival, so only the ACK is lost.
	r.k.At(f.Duration()+1*sim.Microsecond, func() {
		r.m.SetFadeUntil(0, f.Duration()+frame.TurnaroundTime+frame.AckDuration+10*sim.Microsecond)
	})
	r.k.Run(1 * sim.Second)

	if want := []bool{false, true}; len(outcomes) != 2 || outcomes[0] != want[0] || outcomes[1] != want[1] {
		t.Fatalf("outcomes = %v, want [false true] (ACK lost, retry ACKed)", outcomes)
	}
	if f.Retries != 1 {
		t.Errorf("Retries = %d, want 1", f.Retries)
	}
	rs := receiver.Stats()
	if rs.Delivered != 1 || delivered != 1 {
		t.Errorf("Delivered = %d (sink callback %d), want exactly once", rs.Delivered, delivered)
	}
	if rs.Duplicates != 1 {
		t.Errorf("Duplicates = %d, want 1 (the retransmission)", rs.Duplicates)
	}
	if rs.AcksSent != 2 {
		t.Errorf("AcksSent = %d, want 2 (duplicates are re-ACKed)", rs.AcksSent)
	}
	ss := sender.Stats()
	if ss.TxFail != 1 || ss.TxSuccess != 1 || ss.RetryDrops != 0 {
		t.Errorf("sender stats: %+v", ss)
	}
	if !sender.Queue().Empty() {
		t.Error("acknowledged frame still queued")
	}
}

type tableRouter map[frame.NodeID]frame.NodeID

func (r tableRouter) NextHop(from, sink frame.NodeID) (frame.NodeID, bool) {
	h, ok := r[from]
	return h, ok
}

func TestForwarding(t *testing.T) {
	router := tableRouter{1: 0}
	r := newRig(t, 3, []Config{{}, {Router: router}, {}})
	// Node 2 sends to node 1 with final sink 0: node 1 must re-queue it.
	f := testData(2, 1, 1)
	f.Sink = 0
	r.bases[1].Deliver(f)
	st := r.bases[1].Stats()
	if st.Forwarded != 1 {
		t.Fatalf("Forwarded = %d, want 1", st.Forwarded)
	}
	fwd := r.bases[1].Queue().Head()
	if fwd == nil || fwd.Dst != 0 || fwd.Origin != 2 || fwd.Seq != 1 {
		t.Fatalf("forwarded frame wrong: %+v", fwd)
	}
}

func TestQueueLevelIntegral(t *testing.T) {
	r := newRig(t, 1, nil)
	b := r.bases[0]
	b.ResetQueueIntegral()
	b.Enqueue(testData(0, 0, 1))
	// One frame queued for 1000 µs, then a second joins for another 1000 µs.
	r.k.Schedule(1000, func() { b.Enqueue(testData(0, 0, 2)) })
	r.k.Run(2000)
	got := b.AvgQueueLevel()
	if got < 1.49 || got > 1.51 { // (1*1000 + 2*1000) / 2000
		t.Errorf("AvgQueueLevel = %v, want 1.5", got)
	}
}

func TestNeighborQueueStaleness(t *testing.T) {
	r := newRig(t, 2, nil)
	b := r.bases[0]
	f := testData(1, 0, 1)
	f.QueueLevel = 6
	b.Deliver(f)
	if got := b.AvgNeighborQueue(); got != 6 {
		t.Fatalf("AvgNeighborQueue = %v, want 6", got)
	}
	// After the staleness window the entry must be gone (the saturation
	// deadlock guard).
	r.k.Run(17 * superframe.DefaultConfig().SuperframeDuration())
	if got := b.AvgNeighborQueue(); got != 0 {
		t.Fatalf("stale AvgNeighborQueue = %v, want 0", got)
	}
}

// TestAvgNeighborQueueMatchesWalk checks the cached neighbour mean against
// a fresh walk of a reference table. Random scripts interleave overheard
// frames (refreshes of live entries, ACKs and the node's own frames
// included), clock advances that land exactly on an entry's expiry edge or
// one tick past it, reboots and reads; every read must be bit-equal to the
// walk.
func TestAvgNeighborQueueMatchesWalk(t *testing.T) {
	const stale = sim.Time(1000)
	const srcs = 6
	walk := func(ref map[frame.NodeID]neighborLevel, cutoff sim.Time) float64 {
		var sum float64
		n := 0
		for id, l := range ref {
			if l.at < cutoff {
				delete(ref, id)
				continue
			}
			sum += float64(l.level)
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	var hits, walks int
	for seed := uint64(1); seed <= 20; seed++ {
		r := newRig(t, 2, []Config{{NeighborStaleAfter: stale}})
		b := r.bases[0]
		rng := sim.NewRand(seed)
		ref := map[frame.NodeID]neighborLevel{}
		for step := 0; step < 2000; step++ {
			now := r.k.Now()
			switch op := rng.Intn(10); {
			case op < 4:
				f := &frame.Frame{Kind: frame.Data, Src: frame.NodeID(rng.Intn(srcs + 1)), Dst: 9,
					QueueLevel: uint8(rng.Intn(256))}
				if rng.Intn(8) == 0 {
					f.Kind = frame.Ack
				}
				b.Deliver(f)
				if f.Kind != frame.Ack && f.Src != b.ID() {
					ref[f.Src] = neighborLevel{level: f.QueueLevel, at: now}
				}
			case op < 7:
				to := now + sim.Time(rng.Intn(int(stale/4)))
				var edges []sim.Time
				for id := frame.NodeID(1); id <= srcs; id++ {
					if l, ok := ref[id]; ok && l.at+stale >= now {
						edges = append(edges, l.at+stale+sim.Time(rng.Intn(2)))
					}
				}
				if len(edges) > 0 && rng.Intn(2) == 0 {
					to = edges[rng.Intn(len(edges))]
				}
				r.k.Run(to)
			case op == 7:
				b.Reboot()
				clear(ref)
			default:
				cutoff := now - stale
				if cutoff <= b.neighborOldest {
					hits++
				} else {
					walks++
				}
				got, want := b.AvgNeighborQueue(), walk(ref, cutoff)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d step %d at %v: AvgNeighborQueue = %v, walk = %v", seed, step, now, got, want)
				}
			}
		}
	}
	if hits == 0 || walks == 0 {
		t.Fatalf("script exercised %d cached and %d walked reads, want both", hits, walks)
	}
	t.Logf("%d cached and %d walked reads", hits, walks)
}

func TestCommandHook(t *testing.T) {
	var got *frame.Frame
	r := newRig(t, 2, []Config{{}, {OnCommand: func(f *frame.Frame) { got = f }}})
	req := &frame.Frame{Kind: frame.GTSRequest, Src: 0, Dst: 1, Origin: 0, Sink: 1, Seq: 1, MPDUBytes: 27}
	r.bases[1].Deliver(req)
	if got != req {
		t.Fatal("GTS request did not reach the command hook")
	}
	// Broadcast commands reach the hook too.
	got = nil
	resp := &frame.Frame{Kind: frame.GTSResponse, Src: 0, Dst: frame.Broadcast, Origin: 0, Sink: frame.Broadcast, Seq: 2, MPDUBytes: 29}
	r.bases[1].Deliver(resp)
	if got != resp {
		t.Fatal("GTS response broadcast did not reach the command hook")
	}
}

func TestForwardingFullQueueDropsOnce(t *testing.T) {
	// A frame dropped by a full queue on the forwarding path must be counted
	// exactly once and returned to the pool exactly once — the double-release
	// checker turns a second Put into a panic.
	pool := &frame.Pool{}
	pool.SetChecks(true)
	router := tableRouter{1: 0}
	r := newRig(t, 3, []Config{
		{FramePool: pool},
		{Router: router, FramePool: pool, QueueCap: 1},
		{FramePool: pool},
	})
	// Fill node 1's single-slot queue so the forwarded copy cannot fit.
	if !r.bases[1].Enqueue(testData(1, 0, 9)) {
		t.Fatal("priming enqueue failed")
	}
	f := testData(2, 1, 1)
	f.Sink = 0
	r.bases[1].Deliver(f)
	st := r.bases[1].Stats()
	if st.Forwarded != 0 {
		t.Errorf("Forwarded = %d, want 0", st.Forwarded)
	}
	if st.QueueDrops != 1 {
		t.Errorf("QueueDrops = %d, want 1", st.QueueDrops)
	}
	if st.DeadlineDrops != 0 {
		t.Errorf("DeadlineDrops = %d, want 0", st.DeadlineDrops)
	}
	// The head frame must be untouched by the drop.
	if h := r.bases[1].Queue().Head(); h == nil || h.Seq != 9 {
		t.Fatalf("queue head = %+v, want the primed frame", h)
	}
}

func TestDropOldestEvictsBehindHead(t *testing.T) {
	pool := &frame.Pool{}
	pool.SetChecks(true)
	r := newRig(t, 1, []Config{{FramePool: pool, QueueCap: 2, Drop: DropOldest}})
	b := r.bases[0]
	var doneOld *bool
	f1, f2, f3 := testData(0, 0, 1), pool.Get(), testData(0, 0, 3)
	*f2 = *testData(0, 0, 2)
	f2.Done = func(ok bool) { doneOld = &ok }
	b.Enqueue(f1)
	b.Enqueue(f2)
	if !b.Enqueue(f3) {
		t.Fatal("drop-oldest enqueue rejected the arrival")
	}
	st := b.Stats()
	if st.QueueDrops != 1 || st.Enqueued != 3 {
		t.Errorf("stats = %+v, want 1 queue drop and 3 enqueued", st)
	}
	if doneOld == nil || *doneOld {
		t.Errorf("evicted frame's Done = %v, want failure", doneOld)
	}
	// The in-service head must never be evicted; the arrival sits behind it.
	if h := b.Queue().Head(); h == nil || h.Seq != 1 {
		t.Fatalf("queue head = %+v, want seq 1", h)
	}
	if b.Queue().Len() != 2 || b.Queue().At(1).Seq != 3 {
		t.Fatalf("queue tail wrong: len %d", b.Queue().Len())
	}
}

func TestDropOldestCapacityOneDegradesToTailDrop(t *testing.T) {
	r := newRig(t, 1, []Config{{QueueCap: 1, Drop: DropOldest}})
	b := r.bases[0]
	b.Enqueue(testData(0, 0, 1))
	if b.Enqueue(testData(0, 0, 2)) {
		t.Fatal("capacity-1 queue must tail-drop (head is in service)")
	}
	if st := b.Stats(); st.QueueDrops != 1 {
		t.Errorf("QueueDrops = %d, want 1", st.QueueDrops)
	}
}

func TestDeadlineDropEvictsExpired(t *testing.T) {
	pool := &frame.Pool{}
	pool.SetChecks(true)
	deadline := sim.Time(100)
	r := newRig(t, 1, []Config{{FramePool: pool, QueueCap: 2, Drop: DeadlineDrop, DropDeadline: deadline}})
	b := r.bases[0]
	f1, f2 := testData(0, 0, 1), pool.Get()
	*f2 = *testData(0, 0, 2)
	b.Enqueue(f1)
	b.Enqueue(f2) // CreatedAt 0
	r.k.Run(200)  // both queued frames are now past the deadline
	fresh := testData(0, 0, 3)
	fresh.CreatedAt = r.k.Now()
	if !b.Enqueue(fresh) {
		t.Fatal("deadline-drop enqueue rejected the arrival")
	}
	st := b.Stats()
	if st.DeadlineDrops != 1 || st.QueueDrops != 0 {
		t.Errorf("stats = %+v, want exactly 1 deadline drop", st)
	}
	// Only the non-head expired frame goes; the in-service head stays.
	if h := b.Queue().Head(); h == nil || h.Seq != 1 {
		t.Fatalf("queue head = %+v, want seq 1", h)
	}
}

func TestParseDropPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DropPolicy
	}{{"", TailDrop}, {"tail", TailDrop}, {"oldest", DropOldest}, {"deadline", DeadlineDrop}} {
		got, err := ParseDropPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDropPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseDropPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestAccessBarringDisabledWithoutRng(t *testing.T) {
	r := newRig(t, 1, nil)
	b := r.bases[0]
	b.SetBarring(0, 100) // even a fully closed gate is inert without an RNG
	if barred, _ := b.AccessBarred(); barred {
		t.Fatal("barring engaged without a BarringRng")
	}
	if st := b.Stats(); st.Barred != 0 {
		t.Errorf("Barred = %d, want 0", st.Barred)
	}
}

func TestAccessBarringGateAndEscalation(t *testing.T) {
	r := newRig(t, 1, []Config{{BarringRng: sim.NewRand(1)}})
	b := r.bases[0]
	if barred, _ := b.AccessBarred(); barred {
		t.Fatal("default barring factor must be fully open")
	}
	b.SetBarring(0, 100) // p=0: every draw fails
	barred, retry := b.AccessBarred()
	if !barred || retry != 100 {
		t.Fatalf("first bar: barred=%v retry=%v, want true, 100", barred, retry)
	}
	// While the backoff runs, re-polls return the cached horizon without
	// drawing or re-counting.
	barred2, retry2 := b.AccessBarred()
	if !barred2 || retry2 != retry {
		t.Fatalf("cached bar: barred=%v retry=%v", barred2, retry2)
	}
	if st := b.Stats(); st.Barred != 1 {
		t.Errorf("Barred = %d, want 1 (cached re-poll must not count)", st.Barred)
	}
	// Past the horizon the next failed draw escalates the wait (<<1).
	r.k.Run(150)
	barred3, retry3 := b.AccessBarred()
	if !barred3 || retry3 != r.k.Now()+200 {
		t.Fatalf("escalated bar: barred=%v retry=%v, want %v", barred3, retry3, r.k.Now()+200)
	}
	if b.BarringFactor() != 0 {
		t.Errorf("BarringFactor = %v, want 0", b.BarringFactor())
	}
	// A fully open beacon lifts the gate immediately once the wait passed.
	r.k.Run(500)
	b.SetBarring(1, 100)
	if barred, _ := b.AccessBarred(); barred {
		t.Fatal("p=1 must never bar")
	}
	if st := b.Stats(); st.Barred != 2 {
		t.Errorf("Barred = %d, want 2", st.Barred)
	}
}
