package guest

import (
	"cdna/internal/cpu"
	"cdna/internal/ether"
	"cdna/internal/intelnic"
	"cdna/internal/mem"
	"cdna/internal/ring"
	"cdna/internal/sim"
	"cdna/internal/stats"
)

// DriverCosts are per-packet and per-event CPU costs for a device
// driver, whichever domain hosts it.
type DriverCosts struct {
	TxPerPkt   sim.Time // build + post one transmit descriptor
	RxPerPkt   sim.Time // process one receive completion + replenish
	BatchFixed sim.Time // fixed cost per doorbell batch
	IrqFixed   sim.Time // fixed cost per (virtual) interrupt
	PIO        sim.Time // one programmed-I/O doorbell write
}

// RingEntries is the descriptor ring size used by all drivers.
const RingEntries = 1024

// PoolPages is the per-direction buffer pool size.
const PoolPages = 1536

// NativeDriver is an unmodified conventional driver for the Intel-style
// NIC (§2.2): it runs natively in Table 1's baseline and inside Xen's
// driver domain for the software-virtualization rows.
type NativeDriver struct {
	Dom   *cpu.Domain
	DomID mem.DomID
	Mem   *mem.Memory
	NIC   *intelnic.NIC
	Costs DriverCosts

	tx, rx *ring.Ring

	txPool, rxPool []mem.PFN
	// Per-slot buffer/frame tables indexed by slot(ring index), with
	// PFN 0 / nil marking an empty slot, as in CDNADriver.
	txBufs, rxBufs []mem.PFN
	inflight       []*ether.Frame
	lastTxCons     uint32
	lastRxCons     uint32

	kickQueued   bool
	rxKickQueued bool
	rxHandler    func(*ether.Frame)

	backlog sim.FIFO[*ether.Frame] // qdisc: frames waiting for ring space

	// Per-packet frames queued into domain tasks, popped FIFO by the
	// matching callback bound once below (domain task queues preserve
	// order); kickFn/rxKickFn/irqFn are the batched-path callbacks.
	txIn sim.FIFO[*ether.Frame]
	rxUp sim.FIFO[*ether.Frame]

	txInFn, rxUpFn, irqFn, kickFn, rxKickFn func()

	TxDropped stats.Counter // backlog overflow (qdisc limit)
}

// NewNativeDriver allocates rings and buffer pools in the owning domain
// and binds to the NIC.
func NewNativeDriver(dom *cpu.Domain, domID mem.DomID, m *mem.Memory, n *intelnic.NIC, costs DriverCosts) (*NativeDriver, error) {
	d := &NativeDriver{
		Dom: dom, DomID: domID, Mem: m, NIC: n, Costs: costs,
		txBufs: make([]mem.PFN, RingEntries), rxBufs: make([]mem.PFN, RingEntries),
		inflight: make([]*ether.Frame, RingEntries),
	}
	d.txInFn = d.txEnqueueTask
	d.rxUpFn = d.rxUpTask
	d.irqFn = d.irqTask
	d.kickFn = d.kickTask
	d.rxKickFn = d.rxKickTask
	ringPages := (RingEntries*ring.DefaultLayout.Size + mem.PageSize - 1) / mem.PageSize
	var err error
	d.tx, err = ring.New("intel.tx", ring.DefaultLayout, m.Alloc(domID, ringPages)[0].Base(), RingEntries)
	if err != nil {
		return nil, err
	}
	d.rx, err = ring.New("intel.rx", ring.DefaultLayout, m.Alloc(domID, ringPages)[0].Base(), RingEntries)
	if err != nil {
		return nil, err
	}
	d.txPool = m.Alloc(domID, PoolPages)
	d.rxPool = m.Alloc(domID, PoolPages)
	n.AttachRings(d.tx, d.rx)
	n.SetDriver(d.lookupTx, nil) // IRQ line is wired by the machine builder
	return d, nil
}

// MAC implements NetDevice.
func (d *NativeDriver) MAC() ether.MAC { return d.NIC.MAC }

// SetRxHandler implements NetDevice.
func (d *NativeDriver) SetRxHandler(h func(*ether.Frame)) { d.rxHandler = h }

func (d *NativeDriver) lookupTx(idx uint32) *ether.Frame { return d.inflight[slot(idx)] }

// Start posts the initial receive buffers (driver initialization).
func (d *NativeDriver) Start() {
	n := RingEntries - 1
	for i := 0; i < n; i++ {
		d.postRxBuffer()
	}
	d.NIC.KickRx(d.rx.Prod())
}

func (d *NativeDriver) postRxBuffer() bool {
	if len(d.rxPool) == 0 || d.rx.Full() {
		return false
	}
	pfn := d.rxPool[len(d.rxPool)-1]
	d.rxPool = d.rxPool[:len(d.rxPool)-1]
	idx := d.rx.Prod()
	desc := ring.Desc{Addr: pfn.Base(), Len: ether.HeaderBytes + ether.MTU + 86, Flags: ring.FlagValid}
	if err := d.rx.WriteDesc(d.Mem, d.DomID, idx, desc); err != nil {
		d.rxPool = append(d.rxPool, pfn)
		return false
	}
	d.rx.Publish(1)
	d.rxBufs[slot(idx)] = pfn
	return true
}

// StartXmit implements NetDevice: per-packet descriptor work then a
// batched doorbell.
func (d *NativeDriver) StartXmit(f *ether.Frame) {
	d.txIn.Push(f)
	d.Dom.Exec(cpu.CatKernel, ScaleCost(d.Costs.TxPerPkt, f.Size), "ndrv.tx", d.txInFn)
}

func (d *NativeDriver) txEnqueueTask() {
	f := d.txIn.Pop()
	// Qdisc semantics: queue, then fill the ring as far as space and
	// buffers allow; the rest drains on transmit completions.
	if d.backlog.Len() >= qdiscLimit {
		d.TxDropped.Inc()
		f.Release()
		return
	}
	d.backlog.Push(f)
	d.reapTx()
	d.fillRing()
}

func (d *NativeDriver) scheduleKick() {
	if d.kickQueued {
		return
	}
	d.kickQueued = true
	d.Dom.Exec(cpu.CatKernel, d.Costs.BatchFixed+d.Costs.PIO, "ndrv.kick", d.kickFn)
}

func (d *NativeDriver) kickTask() {
	d.kickQueued = false
	d.NIC.KickTx(d.tx.Prod())
}

// fillRing moves backlog frames onto the descriptor ring while space
// and buffer pages allow.
func (d *NativeDriver) fillRing() {
	moved := false
	for d.backlog.Len() > 0 && len(d.txPool) > 0 && !d.tx.Full() {
		f := d.backlog.Peek()
		pfn := d.txPool[len(d.txPool)-1]
		idx := d.tx.Prod()
		desc := ring.Desc{Addr: pfn.Base(), Len: uint16(f.Size), Flags: ring.FlagTx | ring.FlagValid}
		if err := d.tx.WriteDesc(d.Mem, d.DomID, idx, desc); err != nil {
			break
		}
		d.backlog.Pop()
		d.txPool = d.txPool[:len(d.txPool)-1]
		d.tx.Publish(1)
		d.txBufs[slot(idx)] = pfn
		d.inflight[slot(idx)] = f
		moved = true
	}
	if moved {
		d.scheduleKick()
	}
}

// reapTx recycles buffers for descriptors the NIC has consumed.
func (d *NativeDriver) reapTx() {
	for d.lastTxCons != d.tx.Cons() {
		idx := slot(d.lastTxCons)
		if pfn := d.txBufs[idx]; pfn != 0 {
			d.txPool = append(d.txPool, pfn)
			d.txBufs[idx] = 0
		}
		if f := d.inflight[idx]; f != nil {
			f.Release()
			d.inflight[idx] = nil
		}
		d.lastTxCons++
	}
}

// OnInterrupt is the driver's interrupt handler, invoked in the owning
// domain's context (directly for native IRQs, via an event channel under
// Xen). It reaps transmit completions, pulls receive completions up the
// stack, and replenishes receive buffers.
func (d *NativeDriver) OnInterrupt() {
	d.Dom.Exec(cpu.CatKernel, d.Costs.IrqFixed, "ndrv.irq", d.irqFn)
}

func (d *NativeDriver) irqTask() {
	d.reapTx()
	d.fillRing()
	comps := d.NIC.DrainRx()
	for _, f := range comps {
		d.rxUp.Push(f)
		d.Dom.Exec(cpu.CatKernel, ScaleCost(d.Costs.RxPerPkt, f.Size), "ndrv.rx", d.rxUpFn)
	}
	if len(comps) > 0 {
		d.replenishRx(len(comps))
	}
}

func (d *NativeDriver) rxUpTask() {
	f := d.rxUp.Pop()
	if d.rxHandler != nil {
		d.rxHandler(f)
	} else {
		f.Release()
	}
}

func (d *NativeDriver) replenishRx(n int) {
	// Recycle consumed buffers, then repost.
	for d.lastRxCons != d.rx.Cons() {
		idx := slot(d.lastRxCons)
		if pfn := d.rxBufs[idx]; pfn != 0 {
			d.rxPool = append(d.rxPool, pfn)
			d.rxBufs[idx] = 0
		}
		d.lastRxCons++
	}
	posted := 0
	for i := 0; i < n; i++ {
		if d.postRxBuffer() {
			posted++
		}
	}
	if posted > 0 && !d.rxKickQueued {
		d.rxKickQueued = true
		d.Dom.Exec(cpu.CatKernel, d.Costs.PIO, "ndrv.rxkick", d.rxKickFn)
	}
}

func (d *NativeDriver) rxKickTask() {
	d.rxKickQueued = false
	d.NIC.KickRx(d.rx.Prod())
}
