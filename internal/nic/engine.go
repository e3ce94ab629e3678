package nic

import (
	"cdna/internal/bus"
	"cdna/internal/ether"
	"cdna/internal/mem"
	"cdna/internal/ring"
	"cdna/internal/sim"
	"cdna/internal/stats"
)

// Params configures the DMA/packet engine.
type Params struct {
	ProcTx     sim.Time // processing per transmitted packet
	ProcRx     sim.Time // processing per received packet
	FetchBatch int      // descriptors fetched per DMA read
	RxPrefetch int      // receive descriptors to keep fetched ahead
	TxWindow   int      // frames the engine keeps queued on the wire ahead
	// RxBufBytes is the per-queue on-NIC receive packet buffer (the
	// RiceNIC provides 128 KB per context, §4): frames arriving while
	// descriptors are published but not yet fetched wait here instead
	// of being dropped. 0 disables buffering (drop immediately).
	RxBufBytes int
}

// DefaultParams returns a conventional-ASIC parameterization.
func DefaultParams() Params {
	return Params{
		ProcTx:     300 * sim.Nanosecond,
		ProcRx:     400 * sim.Nanosecond,
		FetchBatch: 16,
		RxPrefetch: 64,
		TxWindow:   3,
		RxBufBytes: 128 << 10,
	}
}

// Hooks are the device-specific policies layered on the generic engine.
type Hooks struct {
	// CheckTxSeq/CheckRxSeq validate a descriptor's sequence number for
	// queue qid (nil = no checking, the conventional-NIC case). A false
	// return freezes the queue and reports a fault.
	CheckTxSeq func(qid int, d ring.Desc) bool
	CheckRxSeq func(qid int, d ring.Desc) bool
	// OnFault reports a protection fault on a queue.
	OnFault func(qid int, tx bool, d ring.Desc)
	// LookupTx maps a tx descriptor (by free-running ring index) to the
	// frame the driver associated with it; nil results transmit an
	// opaque frame of the descriptor's length (the stale-descriptor /
	// corrupted case).
	LookupTx func(qid int, idx uint32) *ether.Frame
	// RxQueueFor demultiplexes an incoming frame to a queue (-1 drops).
	RxQueueFor func(dst ether.MAC) int
	// OnRxDelivered records a received frame's completion (the data is
	// now in host memory; the driver sees it at its next interrupt).
	OnRxDelivered func(qid int, f *ether.Frame, d ring.Desc)
	// OnCompletion is called for every finished tx or rx descriptor;
	// devices use it to accumulate interrupt state (bit vectors).
	OnCompletion func(qid int, tx bool)
}

type txEntry struct {
	idx  uint32
	desc ring.Desc
}

type queue struct {
	id     int
	tx, rx *ring.Ring
	active bool

	// NIC-visible producer indices (mailbox values).
	txProd, rxProd uint32
	// Next free-running index to fetch.
	txFetch, rxFetch uint32

	txFifo     sim.FIFO[txEntry]
	rxFifo     sim.FIFO[txEntry]
	txFetching bool
	rxFetching bool

	// In-flight descriptor-fetch parameters plus the completion
	// callbacks bound at AddQueue: at most one fetch per direction is
	// outstanding, so the old per-fetch closure's captures live here.
	txFetchN, rxFetchN         int
	txFetchStart, rxFetchStart uint32
	txDescDoneFn, rxDescDoneFn func()

	// On-NIC receive packet buffer: frames waiting for a descriptor
	// fetch to complete (§4's per-context buffering).
	rxHeld      sim.FIFO[*ether.Frame]
	rxHeldBytes int
}

// txJob / rxJob carry one packet's state through the FIFO processing
// server and the FIFO bus: completions pop the matching job, replacing
// the fresh capturing closure per packet the hot path used to allocate.
type txJob struct {
	q     *queue
	entry txEntry
}

type rxJob struct {
	q     *queue
	f     *ether.Frame
	entry txEntry
}

// Engine is the generic multi-queue NIC data engine.
type Engine struct {
	Eng    *sim.Engine
	Bus    *bus.Bus
	Mem    *mem.Memory
	Out    *ether.Pipe
	Proc   *Server
	Params Params
	Hooks  Hooks

	queues  []*queue
	rrNext  int
	pumping bool

	// Per-packet pipeline state (see txJob/rxJob) and the stage
	// callbacks, bound once in NewEngine.
	txProcJobs, txDmaJobs sim.FIFO[txJob]
	rxProcJobs, rxDmaJobs sim.FIFO[rxJob]

	txProcDoneFn, txDmaDoneFn func()
	rxProcDoneFn, rxDmaDoneFn func()
	pumpStepFn                func()

	TxPackets  stats.Counter
	RxPackets  stats.Counter
	RxDrops    stats.Counter // no posted buffer or no matching queue
	RxBuffered stats.Counter // frames absorbed by the on-NIC buffer
	Faults     stats.Counter
}

// NewEngine creates the data engine. Hooks must be set before traffic
// flows.
func NewEngine(eng *sim.Engine, b *bus.Bus, m *mem.Memory, out *ether.Pipe, p Params) *Engine {
	e := &Engine{Eng: eng, Bus: b, Mem: m, Out: out, Proc: NewServer(eng), Params: p}
	e.txProcDoneFn = e.txProcDone
	e.txDmaDoneFn = e.txDmaDone
	e.rxProcDoneFn = e.rxProcDone
	e.rxDmaDoneFn = e.rxDmaDone
	e.pumpStepFn = e.pumpStep
	return e
}

// AddQueue registers a queue pair over the given rings and returns its
// queue id.
func (e *Engine) AddQueue(tx, rx *ring.Ring) int {
	q := &queue{id: len(e.queues), tx: tx, rx: rx, active: true}
	q.txDescDoneFn = func() { e.txDescDone(q) }
	q.rxDescDoneFn = func() { e.rxDescDone(q) }
	e.queues = append(e.queues, q)
	return q.id
}

// DetachQueue shuts down a queue (context revocation): pending work is
// discarded and future mailbox writes and frames are ignored.
func (e *Engine) DetachQueue(qid int) {
	if qid < 0 || qid >= len(e.queues) {
		return
	}
	q := e.queues[qid]
	q.active = false
	q.txFifo.Clear()
	q.rxFifo.Clear()
	for q.rxHeld.Len() > 0 {
		q.rxHeld.Pop().Release()
	}
	q.rxHeldBytes = 0
}

// QueueActive reports whether the queue is serving.
func (e *Engine) QueueActive(qid int) bool {
	return qid >= 0 && qid < len(e.queues) && e.queues[qid].active
}

// KickTx is the tx mailbox write: the NIC learns the new producer index
// and begins fetching/transmitting. The value is trusted, exactly as the
// paper describes — validation happens via sequence numbers.
func (e *Engine) KickTx(qid int, prod uint32) {
	q := e.queues[qid]
	if !q.active {
		return
	}
	q.txProd = prod
	e.fetchTx(q)
	e.pump()
}

// KickRx is the rx mailbox write (new receive buffers posted).
func (e *Engine) KickRx(qid int, prod uint32) {
	q := e.queues[qid]
	if !q.active {
		return
	}
	q.rxProd = prod
	e.fetchRx(q)
}

// fetchTx issues a descriptor DMA read when there is something to fetch.
func (e *Engine) fetchTx(q *queue) {
	if q.txFetching || !q.active {
		return
	}
	n := int(q.txProd - q.txFetch)
	if n <= 0 {
		return
	}
	if n > e.Params.FetchBatch {
		n = e.Params.FetchBatch
	}
	q.txFetching = true
	q.txFetchN = n
	q.txFetchStart = q.txFetch
	e.Bus.DMA(n*q.tx.Layout.Size, "bus.dma:txdesc", q.txDescDoneFn)
}

func (e *Engine) txDescDone(q *queue) {
	q.txFetching = false
	if !q.active {
		return
	}
	for i := 0; i < q.txFetchN; i++ {
		idx := q.txFetchStart + uint32(i)
		d, err := q.tx.ReadDesc(e.Mem, idx)
		if err != nil {
			return
		}
		if e.Hooks.CheckTxSeq != nil && !e.Hooks.CheckTxSeq(q.id, d) {
			e.fault(q, true, d)
			return
		}
		q.txFifo.Push(txEntry{idx: idx, desc: d})
		q.txFetch = idx + 1
	}
	e.fetchTx(q) // keep fetching if more were published
	e.pump()
}

// fetchRx prefetches receive descriptors.
func (e *Engine) fetchRx(q *queue) {
	if q.rxFetching || !q.active {
		return
	}
	if q.rxFifo.Len() >= e.Params.RxPrefetch {
		return
	}
	n := int(q.rxProd - q.rxFetch)
	if n <= 0 {
		return
	}
	if n > e.Params.FetchBatch {
		n = e.Params.FetchBatch
	}
	q.rxFetching = true
	q.rxFetchN = n
	q.rxFetchStart = q.rxFetch
	e.Bus.DMA(n*q.rx.Layout.Size, "bus.dma:rxdesc", q.rxDescDoneFn)
}

func (e *Engine) rxDescDone(q *queue) {
	q.rxFetching = false
	if !q.active {
		return
	}
	for i := 0; i < q.rxFetchN; i++ {
		idx := q.rxFetchStart + uint32(i)
		d, err := q.rx.ReadDesc(e.Mem, idx)
		if err != nil {
			return
		}
		if e.Hooks.CheckRxSeq != nil && !e.Hooks.CheckRxSeq(q.id, d) {
			e.fault(q, false, d)
			return
		}
		q.rxFifo.Push(txEntry{idx: idx, desc: d})
		q.rxFetch = idx + 1
	}
	// Buffered frames drain now that descriptors are available.
	for q.rxHeld.Len() > 0 && q.rxFifo.Len() > 0 {
		f := q.rxHeld.Pop()
		q.rxHeldBytes -= f.Size
		e.deliverRx(q, f)
	}
	e.fetchRx(q)
}

func (e *Engine) fault(q *queue, tx bool, d ring.Desc) {
	e.Faults.Inc()
	if e.Hooks.OnFault != nil {
		e.Hooks.OnFault(q.id, tx, d)
	}
	e.DetachQueue(q.id)
}

// pump is the transmit service loop: round-robin across queues with
// fetched descriptors ("the NIC simply services all of the hardware
// contexts fairly and interleaves the network traffic", §3.1), pacing
// against the wire.
func (e *Engine) pump() {
	if e.pumping {
		return
	}
	e.pumping = true
	e.pumpStep()
}

func (e *Engine) pumpStep() {
	// Pace against the wire: keep at most TxWindow frames serialized
	// ahead, and resume as soon as the backlog falls back under the
	// threshold (not when the wire drains — that would leave bubbles).
	slot := sim.Time(float64(1538) * 8) // ~one full frame at 1 Gb/s, in ns
	if e.Out != nil {
		limit := sim.Time(e.Params.TxWindow) * slot
		if bl := e.Out.Backlog(); bl > limit {
			e.Eng.After(bl-limit, "nic.pace", e.pumpStepFn)
			return
		}
	}
	// Round-robin scan for a queue with transmittable work.
	n := len(e.queues)
	for i := 0; i < n; i++ {
		q := e.queues[(e.rrNext+i)%n]
		if !q.active || q.txFifo.Len() == 0 {
			continue
		}
		e.rrNext = (e.rrNext + i + 1) % n
		entry := q.txFifo.Pop()
		if q.txFifo.Len() < e.Params.FetchBatch {
			e.fetchTx(q)
		}
		e.txProcJobs.Push(txJob{q: q, entry: entry})
		e.Proc.Do(e.Params.ProcTx, "nicproc:tx", e.txProcDoneFn)
		return
	}
	e.pumping = false
}

// txProcDone: NIC processing finished; DMA the payload out of host
// memory.
func (e *Engine) txProcDone() {
	j := e.txProcJobs.Pop()
	e.txDmaJobs.Push(j)
	e.Bus.DMA(int(j.entry.desc.Len), "bus.dma:txdata", e.txDmaDoneFn)
}

// txDmaDone: payload is on the NIC; transmit and complete.
func (e *Engine) txDmaDone() {
	j := e.txDmaJobs.Pop()
	var f *ether.Frame
	if e.Hooks.LookupTx != nil {
		f = e.Hooks.LookupTx(j.q.id, j.entry.idx)
	}
	if f == nil {
		// Stale or forged descriptor: the NIC transmits whatever bytes
		// the memory held.
		f = &ether.Frame{Size: int(j.entry.desc.Len)}
	}
	if e.Out != nil {
		// The driver's in-flight slot keeps its reference until reap;
		// the wire consumes one of its own.
		f.Retain()
		e.Out.Send(f)
	}
	e.TxPackets.Inc()
	e.completeTx(j.q)
	e.pumpStep()
}

func (e *Engine) completeTx(q *queue) {
	if q.tx.Avail() > 0 {
		q.tx.Consume(1) // host-visible consumer index writeback
	}
	if e.Hooks.OnCompletion != nil {
		e.Hooks.OnCompletion(q.id, true)
	}
}

// Receive implements ether.Port: a frame arrived from the wire.
func (e *Engine) Receive(f *ether.Frame) {
	qid := 0
	if e.Hooks.RxQueueFor != nil {
		qid = e.Hooks.RxQueueFor(f.Dst)
	}
	if qid < 0 || qid >= len(e.queues) || !e.queues[qid].active {
		e.RxDrops.Inc()
		f.Release()
		return
	}
	q := e.queues[qid]
	if q.rxFifo.Len() == 0 {
		// No fetched descriptor. If more are published (or a fetch is in
		// flight) and the on-NIC packet buffer has room, hold the frame;
		// otherwise tail-drop (§2.2 semantics).
		fetchable := q.rxFetching || int(q.rxProd-q.rxFetch) > 0
		if fetchable && q.rxHeldBytes+f.Size <= e.Params.RxBufBytes {
			q.rxHeld.Push(f)
			q.rxHeldBytes += f.Size
			e.RxBuffered.Inc()
			e.fetchRx(q)
			return
		}
		e.RxDrops.Inc()
		f.Release()
		e.fetchRx(q)
		return
	}
	e.deliverRx(q, f)
}

// deliverRx consumes one fetched descriptor for frame f: NIC processing,
// payload DMA into the host buffer, consumer-index writeback, and the
// completion hook.
func (e *Engine) deliverRx(q *queue, f *ether.Frame) {
	entry := q.rxFifo.Pop()
	if q.rxFifo.Len() < e.Params.RxPrefetch/2 {
		e.fetchRx(q)
	}
	e.rxProcJobs.Push(rxJob{q: q, f: f, entry: entry})
	e.Proc.Do(e.Params.ProcRx, "nicproc:rx", e.rxProcDoneFn)
}

// rxProcDone: NIC processing finished; DMA the payload into the posted
// host buffer.
func (e *Engine) rxProcDone() {
	j := e.rxProcJobs.Pop()
	size := j.f.Size
	if size > int(j.entry.desc.Len) {
		size = int(j.entry.desc.Len)
	}
	e.rxDmaJobs.Push(j)
	e.Bus.DMA(size, "bus.dma:rxdata", e.rxDmaDoneFn)
}

// rxDmaDone: the frame is in host memory; write back the consumer index
// and report the completion.
func (e *Engine) rxDmaDone() {
	j := e.rxDmaJobs.Pop()
	q := j.q
	if !q.active {
		j.f.Release()
		return
	}
	if q.rx.Avail() > 0 {
		q.rx.Consume(1)
	}
	e.RxPackets.Inc()
	if e.Hooks.OnRxDelivered != nil {
		e.Hooks.OnRxDelivered(q.id, j.f, j.entry.desc)
	}
	if e.Hooks.OnCompletion != nil {
		e.Hooks.OnCompletion(q.id, false)
	}
}

// TxBacklog returns fetched-but-untransmitted descriptors on a queue.
func (e *Engine) TxBacklog(qid int) int { return e.queues[qid].txFifo.Len() }

// RxPosted returns fetched receive buffers ready for arrivals.
func (e *Engine) RxPosted(qid int) int { return e.queues[qid].rxFifo.Len() }

// StartWindow resets windowed counters.
func (e *Engine) StartWindow() {
	e.TxPackets.StartWindow()
	e.RxPackets.StartWindow()
	e.RxDrops.StartWindow()
	e.Faults.StartWindow()
}
