// Package bus models the host PCI bus (64-bit/66 MHz on the paper's
// testbed): a shared, FIFO bandwidth server that every DMA transfer —
// descriptor fetches, payload reads/writes, consumer-index writebacks and
// CDNA interrupt bit-vector pushes — must queue on. Programmed I/O cost
// is a constant charged to the issuing CPU context by the caller; the bus
// only tracks DMA occupancy.
package bus

import (
	"cdna/internal/sim"
	"cdna/internal/stats"
)

// Params configures the bus.
type Params struct {
	// BytesPerSec is the usable DMA bandwidth. A 64-bit/66 MHz PCI bus
	// peaks at 528 MB/s; sustained efficiency is lower.
	BytesPerSec float64
	// PerTransfer is the fixed arbitration + setup latency per DMA.
	PerTransfer sim.Time
}

// DefaultParams models the paper's PCI bus at ~80% efficiency.
func DefaultParams() Params {
	return Params{BytesPerSec: 420e6, PerTransfer: 600 * sim.Nanosecond}
}

// Bus is the shared DMA channel.
type Bus struct {
	eng       *sim.Engine
	params    Params
	busyUntil sim.Time

	Transfers stats.Counter
	Bytes     stats.Counter
}

// New creates a bus.
func New(eng *sim.Engine, p Params) *Bus {
	return &Bus{eng: eng, params: p}
}

// transferTime returns the service time for size bytes.
func (b *Bus) transferTime(size int) sim.Time {
	return b.params.PerTransfer + sim.Time(float64(size)/b.params.BytesPerSec*1e9)
}

// DMA queues a transfer of size bytes and invokes fn when it completes.
// Transfers are serviced FIFO — completions fire in issue order — so
// callers needing per-transfer state can pair a sim.FIFO with one
// callback bound at construction instead of capturing it in a fresh
// closure per transfer. name is the event name as it appears in traces.
func (b *Bus) DMA(size int, name string, fn func()) {
	if size < 0 {
		panic("bus: negative DMA size")
	}
	start := b.eng.Now()
	if b.busyUntil > start {
		start = b.busyUntil
	}
	done := start + b.transferTime(size)
	b.busyUntil = done
	b.Transfers.Inc()
	b.Bytes.Add(uint64(size))
	b.eng.At(done, name, fn)
}

// Backlog returns how far in the future the bus frees up.
func (b *Bus) Backlog() sim.Time {
	if b.busyUntil <= b.eng.Now() {
		return 0
	}
	return b.busyUntil - b.eng.Now()
}

// StartWindow resets windowed counters.
func (b *Bus) StartWindow() {
	b.Transfers.StartWindow()
	b.Bytes.StartWindow()
}
