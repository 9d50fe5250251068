package dsme

import (
	"fmt"

	"qma/internal/frame"
	"qma/internal/mac"
	"qma/internal/radio"
	"qma/internal/sim"
	"qma/internal/superframe"
)

// capChannel is the radio channel of the contention access period; GTS
// coordinates map to channels 1..16.
const capChannel = 0

// gtsChannel maps a slot coordinate to its radio channel.
func gtsChannel(g superframe.GTS) uint8 { return uint8(g.Channel) + 1 }

// NodeConfig assembles a DSME node.
type NodeConfig struct {
	// ID is the node's address.
	ID frame.NodeID
	// Kernel, Medium and Clock are the scenario-shared substrates.
	Kernel *sim.Kernel
	Medium *radio.Medium
	Clock  *superframe.Clock
	// Parent is the next hop towards the sink (-1 for the sink itself).
	Parent frame.NodeID
	// Sink is the data-collection root.
	Sink frame.NodeID
	// Rng drives slot picks; required, private to this node.
	Rng *sim.Rand
	// PrimaryQueueCap bounds the GTS data queue (<=0 selects the paper's 8).
	PrimaryQueueCap int
	// MaxRetries is NR for GTS data frames (0 selects 3, negative disables
	// retransmissions).
	MaxRetries int
	// MaxTxSlots caps the slots one node may hold towards its parent
	// (<=0 selects 7, one CFP's worth).
	MaxTxSlots int
	// ResponseTimeout and NotifyTimeout bound the handshake (defaults: 4
	// superframes each — handshake messages contend in the CAP and may need
	// several superframes under load).
	ResponseTimeout, NotifyTimeout sim.Time
	// ControlPeriod is the slot-controller evaluation interval (default: one
	// multi-superframe).
	ControlPeriod sim.Time
	// NeighborExpiry is how long overheard allocations stay in the slot map
	// without being refreshed (default: 64 superframes ≈ 7.9 s).
	NeighborExpiry sim.Time
	// Metrics aggregates network-wide counters; required.
	Metrics *Metrics
	// FramePool, when non-nil, recycles the node's immediate GTS ACKs and
	// supplies its GTS command frames, which the CAP engine returns to it.
	// It may be shared with the CAP engines of the same kernel.
	FramePool *frame.Pool
}

// NodeStats are per-node DSME counters.
type NodeStats struct {
	// PrimaryEnqueued and PrimaryQueueDrops account the GTS data queue.
	PrimaryEnqueued, PrimaryQueueDrops uint64
	// GTSTxAttempts/GTSTxSuccess/GTSRetryDrops account GTS data delivery.
	GTSTxAttempts, GTSTxSuccess, GTSRetryDrops uint64
	// GTSIdle counts owned TX slots that passed without a queued packet.
	GTSIdle uint64
	// AllocStarted/AllocCompleted/AllocFailed and the Dealloc versions count
	// handshakes initiated by this node.
	AllocStarted, AllocCompleted, AllocFailed       uint64
	DeallocStarted, DeallocCompleted, DeallocFailed uint64
	// DuplicatesDetected counts overheard allocations colliding with owned
	// slots.
	DuplicatesDetected uint64
	// Starved counts controller rounds that found no free slot to request.
	Starved uint64
}

// handshake is the requester-side state (one at a time per node).
type handshake struct {
	id         uint32
	gts        superframe.GTS
	deallocate bool
	timer      sim.EventID
}

// responderPending is the responder-side state awaiting a notify.
type responderPending struct {
	gts       superframe.GTS
	requester frame.NodeID
	timer     sim.EventID
}

// gtsAckWait tracks an outstanding GTS data acknowledgement.
type gtsAckWait struct {
	peer  frame.NodeID
	seq   uint32
	frame *frame.Frame
	gts   superframe.GTS
	timer sim.EventID
}

// Node is one DSME device: it owns the primary (GTS) data path and drives
// GTS (de)allocation handshakes as secondary traffic through its CAP MAC.
// It implements radio.Handler, demultiplexing GTS-channel frames from CAP
// frames before the CAP engine sees them.
type Node struct {
	cfg NodeConfig
	cap mac.Engine

	slots      *SlotMap
	slotEvents map[int]sim.EventID

	primary *frame.Queue
	seq     uint32
	hsSeq   uint32

	hs       *handshake
	pending  map[uint32]*responderPending
	ackWait  *gtsAckWait
	lastSeq  map[frame.NodeID]uint32
	hasSeq   map[frame.NodeID]bool
	arrivals int
	demand   float64
	// slotFails counts consecutive failed data transmissions per owned TX
	// slot; deadSlotThreshold failures in a row mean the receiver is gone
	// (e.g. it rolled the slot back after a duplicate detection) and the
	// slot is returned.
	slotFails map[int]int

	// ackStartFn/ackDoneFn are long-lived callbacks for the GTS immediate-ACK
	// path, scheduled via Kernel.AtCall so acknowledging costs no closure
	// allocations (mirrors mac.Base's CAP ACK path).
	ackStartFn func(any)
	ackDoneFn  func(any)

	stats NodeStats
}

var _ radio.Handler = (*Node)(nil)

// NewNode builds the node. The CAP engine is attached afterwards with
// AttachCAP because its mac.Config needs the node's command hook.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Kernel == nil || cfg.Medium == nil || cfg.Clock == nil || cfg.Rng == nil || cfg.Metrics == nil {
		panic("dsme: Kernel, Medium, Clock, Rng and Metrics are required")
	}
	switch {
	case cfg.MaxRetries == 0:
		cfg.MaxRetries = mac.DefaultMaxRetries
	case cfg.MaxRetries < 0:
		cfg.MaxRetries = 0
	}
	if cfg.MaxTxSlots <= 0 {
		cfg.MaxTxSlots = superframe.CFPSlots
	}
	sf := cfg.Clock.Config()
	if cfg.ResponseTimeout <= 0 {
		// Handshake messages contend in the CAP; during QMA's cold start a
		// response can take seconds to get out (exploration-driven
		// bootstrap), so the timeout is generous.
		cfg.ResponseTimeout = 16 * sf.SuperframeDuration()
	}
	if cfg.NotifyTimeout <= 0 {
		cfg.NotifyTimeout = 16 * sf.SuperframeDuration()
	}
	if cfg.ControlPeriod <= 0 {
		cfg.ControlPeriod = sf.MultiframeDuration()
	}
	if cfg.NeighborExpiry <= 0 {
		cfg.NeighborExpiry = 64 * sf.SuperframeDuration()
	}
	n := &Node{
		cfg:        cfg,
		slots:      NewSlotMap(sf),
		slotEvents: make(map[int]sim.EventID),
		primary:    frame.NewQueue(cfg.PrimaryQueueCap),
		pending:    make(map[uint32]*responderPending),
		slotFails:  make(map[int]int),
		lastSeq:    make(map[frame.NodeID]uint32),
		hasSeq:     make(map[frame.NodeID]bool),
	}
	n.ackStartFn = func(a any) { n.transmitGTSAck(a.(*frame.Frame)) }
	n.ackDoneFn = func(a any) { n.cfg.FramePool.Put(a.(*frame.Frame)) }
	return n
}

// CommandHook returns the OnCommand callback to install into the CAP
// engine's mac.Config.
func (n *Node) CommandHook() func(*frame.Frame) { return n.handleCommand }

// AttachCAP installs the CAP engine (whose mac.Config must carry this node's
// CommandHook).
func (n *Node) AttachCAP(e mac.Engine) { n.cap = e }

// CAP returns the attached CAP engine.
func (n *Node) CAP() mac.Engine { return n.cap }

// Slots exposes the slot map for tests and reporting.
func (n *Node) Slots() *SlotMap { return n.slots }

// Stats returns a copy of the node counters.
func (n *Node) Stats() NodeStats { return n.stats }

// Start arms the CAP engine and the slot controller.
func (n *Node) Start() {
	if n.cap == nil {
		panic(fmt.Sprintf("dsme: node %d has no CAP engine attached", n.cfg.ID))
	}
	n.cap.Start()
	if n.cfg.Parent >= 0 {
		// Desynchronize controllers across nodes.
		first := n.cfg.ControlPeriod + sim.Time(n.cfg.Rng.Intn(int(n.cfg.ControlPeriod)))
		n.cfg.Kernel.At(first, n.controlTick)
	}
}

// Enqueue implements traffic.Enqueuer for primary data: frames queue for GTS
// transmission towards the parent.
func (n *Node) Enqueue(f *frame.Frame) bool {
	if n.cfg.Parent < 0 {
		return false
	}
	f.Src = n.cfg.ID
	f.Dst = n.cfg.Parent
	n.arrivals++
	n.cfg.Metrics.notePrimaryGenerated(f)
	if !n.primary.Push(f) {
		n.stats.PrimaryQueueDrops++
		return false
	}
	n.stats.PrimaryEnqueued++
	return true
}

// Deliver implements radio.Handler: GTS-channel frames belong to the primary
// path, everything else goes to the CAP engine (after broadcast-delivery
// accounting for the secondary PDR metric).
func (n *Node) Deliver(f *frame.Frame) {
	if f.Channel != capChannel {
		n.deliverGTS(f)
		return
	}
	if f.IsBroadcast() {
		switch f.Kind {
		case frame.GTSResponse, frame.GTSNotify, frame.RouteDiscovery:
			n.cfg.Metrics.noteBroadcastReceived(f, n.cfg.Medium)
		}
	}
	n.cap.Deliver(f)
}

// ---- Primary path: GTS data ----------------------------------------------

func (n *Node) deliverGTS(f *frame.Frame) {
	switch {
	case f.Kind == frame.Ack && f.Dst == n.cfg.ID:
		w := n.ackWait
		if w == nil || w.peer != f.Src || w.seq != f.Seq {
			return
		}
		n.ackWait = nil
		w.timer.Cancel()
		n.noteSlotOutcome(w.gts, true)
		n.finishGTSData(w.frame, true)
	case f.Kind == frame.Data && f.Dst == n.cfg.ID:
		n.ackGTSData(f)
		if n.isDuplicate(f) {
			return
		}
		if n.cfg.ID == n.cfg.Sink {
			n.cfg.Metrics.notePrimaryDelivered(f, n.cfg.Kernel.Now())
			return
		}
		fwd := &frame.Frame{
			Kind:      frame.Data,
			Src:       n.cfg.ID,
			Dst:       n.cfg.Parent,
			Origin:    f.Origin,
			Sink:      f.Sink,
			Seq:       f.Seq,
			MPDUBytes: f.MPDUBytes,
			Tag:       f.Tag,
			CreatedAt: f.CreatedAt,
		}
		n.arrivals++
		if !n.primary.Push(fwd) {
			n.stats.PrimaryQueueDrops++
		}
	}
}

func (n *Node) isDuplicate(f *frame.Frame) bool {
	if n.hasSeq[f.Origin] && f.Seq <= n.lastSeq[f.Origin] {
		return true
	}
	n.hasSeq[f.Origin] = true
	n.lastSeq[f.Origin] = f.Seq
	return false
}

func (n *Node) ackGTSData(f *frame.Frame) {
	ack := n.cfg.FramePool.Get()
	ack.Kind = frame.Ack
	ack.Src = n.cfg.ID
	ack.Dst = f.Src
	ack.Origin = n.cfg.ID
	ack.Sink = f.Src
	ack.Seq = f.Seq
	ack.MPDUBytes = frame.AckMPDUBytes
	ack.Channel = f.Channel
	n.cfg.Kernel.AtCall(n.cfg.Kernel.Now()+frame.TurnaroundTime, n.ackStartFn, ack)
}

// transmitGTSAck puts a prepared GTS ACK on the air and arranges its return
// to the frame pool once the transmission (and delivery) has ended.
func (n *Node) transmitGTSAck(ack *frame.Frame) {
	if n.cfg.Medium.Transmitting(n.cfg.ID) {
		n.cfg.FramePool.Put(ack)
		return
	}
	txEnd := n.cfg.Medium.StartTX(n.cfg.ID, ack, 0)
	n.cfg.Kernel.AtCall(txEnd, n.ackDoneFn, ack)
}

// armSlot schedules the next occurrence of an owned slot.
func (n *Node) armSlot(g superframe.GTS) {
	idx := g.Index(n.cfg.Clock.Config())
	n.slotEvents[idx].Cancel()
	at := n.cfg.Clock.NextGTSStart(n.cfg.Kernel.Now(), g)
	n.slotEvents[idx] = n.cfg.Kernel.At(at, func() { n.slotStart(g) })
}

// disarmSlot cancels the pending occurrence of a slot.
func (n *Node) disarmSlot(g superframe.GTS) {
	idx := g.Index(n.cfg.Clock.Config())
	n.slotEvents[idx].Cancel()
	delete(n.slotEvents, idx)
}

// slotStart runs at the beginning of an owned GTS occurrence.
func (n *Node) slotStart(g superframe.GTS) {
	st := n.slots.State(g)
	if st != SlotTX && st != SlotRX {
		return // ownership was lost; the chain dies here
	}
	ch := gtsChannel(g)
	n.cfg.Medium.SetTuned(n.cfg.ID, ch)
	end := n.cfg.Kernel.Now() + n.cfg.Clock.GTSDuration()
	n.cfg.Kernel.At(end, func() {
		if n.cfg.Medium.Tuned(n.cfg.ID) == ch {
			n.cfg.Medium.SetTuned(n.cfg.ID, capChannel)
		}
		if s := n.slots.State(g); s == SlotTX || s == SlotRX {
			n.armSlot(g)
		}
	})
	if st == SlotTX {
		// Transmit after a turnaround-sized guard so that the receiver's
		// tuning event at the same slot boundary has settled.
		n.cfg.Kernel.Schedule(frame.TurnaroundTime, func() { n.gtsTransmit(g, ch) })
	}
}

// gtsTransmit sends the primary queue head in the owned slot ("a single
// packet is transmitted per GTS", §6.3).
func (n *Node) gtsTransmit(g superframe.GTS, ch uint8) {
	if n.slots.State(g) != SlotTX {
		return
	}
	f := n.primary.Head()
	if f == nil {
		n.stats.GTSIdle++
		return
	}
	f.Channel = ch
	n.stats.GTSTxAttempts++
	txEnd := n.cfg.Medium.StartTX(n.cfg.ID, f, 0)
	deadline := txEnd + frame.AckWait
	w := &gtsAckWait{peer: f.Dst, seq: f.Seq, frame: f, gts: g}
	w.timer = n.cfg.Kernel.At(deadline, func() {
		n.ackWait = nil
		n.noteSlotOutcome(g, false)
		n.finishGTSData(f, false)
	})
	n.ackWait = w
}

func (n *Node) finishGTSData(f *frame.Frame, success bool) {
	if n.primary.Head() != f {
		return
	}
	if success {
		n.stats.GTSTxSuccess++
		n.primary.Pop()
		return
	}
	f.Retries++
	if int(f.Retries) > n.cfg.MaxRetries {
		n.primary.Pop()
		n.stats.GTSRetryDrops++
	}
}

// deadSlotThreshold is the number of consecutive unacknowledged data
// transmissions after which a TX slot is considered dead and returned. The
// receiving side may have rolled the slot back (duplicate detection) without
// the transmitter being able to hear about it; the watchdog heals such
// asymmetries.
const deadSlotThreshold = 8

// noteSlotOutcome feeds the dead-slot watchdog.
func (n *Node) noteSlotOutcome(g superframe.GTS, success bool) {
	idx := g.Index(n.cfg.Clock.Config())
	if success {
		n.slotFails[idx] = 0
		return
	}
	n.slotFails[idx]++
	if n.slotFails[idx] >= deadSlotThreshold && n.hs == nil && n.slots.State(g) == SlotTX {
		n.slotFails[idx] = 0
		n.startDeallocation(g)
	}
}

// ---- Slot controller ------------------------------------------------------

// controlTick evaluates slot demand once per control period and starts at
// most one handshake. Demand follows an EWMA of arrivals per
// multi-superframe with a 30% provisioning margin, plus an extra slot while
// the queue is backlogged — fluctuating primary traffic therefore causes a
// continuous stream of (de)allocations, the paper's secondary-traffic
// workload.
func (n *Node) controlTick() {
	n.cfg.Kernel.Schedule(n.cfg.ControlPeriod, n.controlTick)
	n.slots.ExpireNeighbors(n.cfg.Kernel.Now() - n.cfg.NeighborExpiry)

	perMSF := float64(n.arrivals) * float64(n.cfg.Clock.Config().MultiframeDuration()) / float64(n.cfg.ControlPeriod)
	n.arrivals = 0
	n.demand = 0.75*n.demand + 0.25*perMSF

	target := int(n.demand*1.3 + 0.999)
	if n.primary.Len() >= 2 {
		target++
	}
	if n.primary.Len() > 0 && target < 1 {
		target = 1
	}
	if target > n.cfg.MaxTxSlots {
		target = n.cfg.MaxTxSlots
	}

	if n.hs != nil {
		return // one handshake at a time
	}
	own := n.slots.Count(SlotTX)
	switch {
	case own < target:
		n.startAllocation()
	case own > target+1 && own > 0 && n.primary.Empty():
		// Oversupplied by more than the hysteresis slack and drained: give a
		// slot back. The slack keeps steady-state traffic from thrashing
		// between allocate and deallocate on Poisson noise.
		slots := n.slots.Owned(SlotTX)
		n.startDeallocation(slots[n.cfg.Rng.Intn(len(slots))])
	}
}

// timeConflict reports whether the node already holds or negotiates a slot
// at the same (superframe, slot) time coordinate — one radio cannot serve
// two channels at once.
func (n *Node) timeConflict(g superframe.GTS) bool {
	for _, st := range []SlotState{SlotTX, SlotRX, SlotPending} {
		for _, o := range n.slots.Owned(st) {
			if o.Superframe == g.Superframe && o.Slot == g.Slot {
				return true
			}
		}
	}
	return false
}

// pickFreeSlot draws a random free, time-conflict-free slot.
func (n *Node) pickFreeSlot() (superframe.GTS, bool) {
	for attempt := 0; attempt < 8; attempt++ {
		g, ok := n.slots.PickFree(n.cfg.Rng.Intn(1 << 20))
		if !ok {
			return superframe.GTS{}, false
		}
		if !n.timeConflict(g) {
			return g, true
		}
	}
	return superframe.GTS{}, false
}

func (n *Node) nextSeq() uint32 { n.seq++; return n.seq }

func (n *Node) nextHsID() uint32 {
	n.hsSeq++
	return uint32(n.cfg.ID)<<20 | n.hsSeq
}

// startAllocation begins the 3-way handshake for a fresh slot (Fig. 24).
func (n *Node) startAllocation() {
	g, ok := n.pickFreeSlot()
	if !ok {
		n.stats.Starved++
		return
	}
	hs := &handshake{id: n.nextHsID(), gts: g}
	n.hs = hs
	n.stats.AllocStarted++
	n.slots.Set(g, SlotPending, n.cfg.Parent)
	n.sendRequest(hs)
}

// startDeallocation begins the 3-way handshake that returns a slot ("GTS
// deallocation is rolled back using the same 3-way handshake", App. A).
func (n *Node) startDeallocation(g superframe.GTS) {
	hs := &handshake{id: n.nextHsID(), gts: g, deallocate: true}
	n.hs = hs
	n.stats.DeallocStarted++
	n.sendRequest(hs)
}

func (n *Node) sendRequest(hs *handshake) {
	req := n.cfg.FramePool.Get()
	*req = frame.Frame{
		Kind:      frame.GTSRequest,
		Src:       n.cfg.ID,
		Dst:       n.cfg.Parent,
		Origin:    n.cfg.ID,
		Sink:      n.cfg.Parent,
		Seq:       n.nextSeq(),
		MPDUBytes: RequestMPDU,
		Payload:   Request{ID: hs.id, GTS: hs.gts, Deallocate: hs.deallocate},
	}
	n.cfg.Metrics.noteRequestSent()
	req.Done = func(acked bool) {
		if n.hs != hs {
			return
		}
		if !acked {
			n.requesterFail(hs, false)
			return
		}
		n.cfg.Metrics.noteRequestAcked()
		// The request arrived; wait for the broadcast response.
		hs.timer = n.cfg.Kernel.Schedule(n.cfg.ResponseTimeout, func() {
			if n.hs == hs {
				n.requesterFail(hs, true)
			}
		})
	}
	if !n.cap.Enqueue(req) {
		req.Done = nil
		n.requesterFail(hs, false)
	}
}

// requesterFail rolls the requester side back.
func (n *Node) requesterFail(hs *handshake, counted bool) {
	_ = counted
	hs.timer.Cancel()
	if !hs.deallocate && n.slots.State(hs.gts) == SlotPending {
		n.slots.Clear(hs.gts)
	}
	if hs.deallocate {
		n.stats.DeallocFailed++
	} else {
		n.stats.AllocFailed++
	}
	n.hs = nil
}

// ---- Command handling (CAP side) -----------------------------------------

func (n *Node) handleCommand(f *frame.Frame) {
	switch p := f.Payload.(type) {
	case Request:
		if f.Dst == n.cfg.ID {
			n.handleRequest(f.Src, p)
		}
	case Response:
		n.handleResponse(p)
	case Notify:
		n.handleNotify(p)
	}
}

// handleRequest is the responder side of the handshake.
func (n *Node) handleRequest(from frame.NodeID, req Request) {
	approved := true
	if req.Deallocate {
		if n.slots.State(req.GTS) == SlotRX && n.slots.Peer(req.GTS) == from {
			n.disarmSlot(req.GTS)
			n.slots.Clear(req.GTS)
		}
	} else {
		if n.slots.State(req.GTS) != SlotFree || n.timeConflict(req.GTS) {
			approved = false
		} else {
			n.slots.Set(req.GTS, SlotPending, from)
			pend := &responderPending{gts: req.GTS, requester: from}
			pend.timer = n.cfg.Kernel.Schedule(n.cfg.NotifyTimeout, func() {
				if n.pending[req.ID] == pend {
					delete(n.pending, req.ID)
					if n.slots.State(req.GTS) == SlotPending {
						n.slots.Clear(req.GTS)
					}
				}
			})
			n.pending[req.ID] = pend
		}
	}
	resp := n.cfg.FramePool.Get()
	*resp = frame.Frame{
		Kind:      frame.GTSResponse,
		Src:       n.cfg.ID,
		Dst:       frame.Broadcast,
		Origin:    n.cfg.ID,
		Sink:      frame.Broadcast,
		Seq:       n.nextSeq(),
		MPDUBytes: ResponseMPDU,
		Payload: Response{
			ID: req.ID, GTS: req.GTS,
			Requester: from, Responder: n.cfg.ID,
			Approved: approved, Deallocate: req.Deallocate,
		},
	}
	n.cfg.Metrics.noteBroadcastSent()
	n.cap.Enqueue(resp)
}

// handleResponse serves both the requester (continue the handshake) and
// overhearing neighbours (update the slot map, detect duplicates).
func (n *Node) handleResponse(resp Response) {
	if resp.Requester == n.cfg.ID {
		hs := n.hs
		if hs == nil || hs.id != resp.ID {
			return
		}
		hs.timer.Cancel()
		if !resp.Approved {
			// Duplicate at the responder: remember the slot as taken and
			// retry with another at the next control tick.
			n.slots.Set(hs.gts, SlotNeighbor, -1)
			n.stats.AllocFailed++
			n.hs = nil
			n.sendNotifyAbort(hs, resp.Responder)
			return
		}
		if hs.deallocate {
			n.disarmSlot(hs.gts)
			n.slots.Clear(hs.gts)
			n.stats.DeallocCompleted++
		} else {
			n.slots.Set(hs.gts, SlotTX, resp.Responder)
			n.armSlot(hs.gts)
			n.stats.AllocCompleted++
		}
		n.hs = nil
		n.sendNotify(hs, resp.Responder)
		return
	}
	n.observeForeign(resp.GTS, resp.Approved && !resp.Deallocate, resp.Deallocate)
}

func (n *Node) sendNotify(hs *handshake, responder frame.NodeID) {
	nf := n.cfg.FramePool.Get()
	*nf = frame.Frame{
		Kind:      frame.GTSNotify,
		Src:       n.cfg.ID,
		Dst:       frame.Broadcast,
		Origin:    n.cfg.ID,
		Sink:      frame.Broadcast,
		Seq:       n.nextSeq(),
		MPDUBytes: NotifyMPDU,
		Payload: Notify{
			ID: hs.id, GTS: hs.gts,
			Requester: n.cfg.ID, Responder: responder,
			Deallocate: hs.deallocate,
		},
	}
	n.cfg.Metrics.noteBroadcastSent()
	n.cap.Enqueue(nf)
}

// sendNotifyAbort closes a disapproved handshake so the responder's
// neighbourhood releases the tentatively marked slot. Modelled as a
// deallocate-notify for the same id.
func (n *Node) sendNotifyAbort(hs *handshake, responder frame.NodeID) {
	abort := &handshake{id: hs.id, gts: hs.gts, deallocate: true}
	n.sendNotify(abort, responder)
}

// handleNotify finalizes the responder side and updates overhearers.
func (n *Node) handleNotify(nf Notify) {
	if nf.Responder == n.cfg.ID {
		pend := n.pending[nf.ID]
		if pend != nil {
			pend.timer.Cancel()
			delete(n.pending, nf.ID)
			if nf.Deallocate {
				if n.slots.State(pend.gts) == SlotPending {
					n.slots.Clear(pend.gts)
				}
			} else if n.slots.State(pend.gts) == SlotPending {
				n.slots.Set(pend.gts, SlotRX, pend.requester)
				n.armSlot(pend.gts)
			}
		}
		return
	}
	n.observeForeign(nf.GTS, !nf.Deallocate, nf.Deallocate)
}

// observeForeign applies an overheard (de)allocation to the local map and
// detects duplicate allocations against owned slots (App. A: "If any of A's
// or B's neighbours have already allocated the GTS ... the GTS allocation is
// rolled back").
func (n *Node) observeForeign(g superframe.GTS, allocated, deallocated bool) {
	st := n.slots.State(g)
	switch {
	case allocated && (st == SlotTX || st == SlotRX):
		n.stats.DuplicatesDetected++
		n.cfg.Metrics.noteDuplicate()
		if st == SlotTX && n.hs == nil {
			n.startDeallocation(g)
		} else if st == SlotRX {
			n.disarmSlot(g)
			n.slots.Clear(g)
		}
	case allocated:
		n.slots.MarkNeighbor(g, n.cfg.Kernel.Now())
	case deallocated && st == SlotNeighbor:
		n.slots.Clear(g)
	}
}
