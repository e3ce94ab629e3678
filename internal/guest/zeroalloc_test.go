//go:build !race

package guest

import (
	"testing"

	"cdna/internal/core"
	"cdna/internal/ether"
	"cdna/internal/sim"
)

// TestCDNAEnqueueZeroAlloc drives warmed CDNA transmit and receive
// enqueues with mixed batch sizes: random transmit bursts and receive
// bursts per round, split by MaxBatch so several enqueues are in flight
// at once and return their descriptor buffers out of size order. Once
// the pool has seen the largest batch, further rounds must not
// allocate. Race builds are excluded (the detector allocates).
func TestCDNAEnqueueZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	r := newCDNARig(t, core.ModeHypercall)
	r.drv.MaxBatch = 32
	r.drv.SetRxHandler(func(*ether.Frame) {})
	r.eng.Run(10 * sim.Millisecond) // initial rx posting

	// Frames are plain values (no arena): Release is a no-op, so the
	// same frames serve every round.
	const maxBurst = 48
	frames, rxFrames := make([]ether.Frame, maxBurst), make([]ether.Frame, maxBurst)
	rng := sim.NewRNG(1)
	step := func() {
		n, m := 1+rng.Intn(maxBurst), 1+rng.Intn(maxBurst)
		for i := 0; i < n; i++ {
			frames[i] = ether.Frame{Size: 1514, Src: r.drv.MAC()}
			r.drv.StartXmit(&frames[i])
		}
		for i := 0; i < m; i++ {
			rxFrames[i] = ether.Frame{Dst: r.drv.MAC(), Size: 1514}
			r.nic.Receive(&rxFrames[i])
		}
		r.eng.Run(r.eng.Now() + sim.Time(300+rng.Intn(300))*sim.Microsecond)
		r.out = r.out[:0]
	}
	const n = 100
	rounds := func() {
		for i := 0; i < n; i++ {
			step()
		}
	}
	rounds() // warm
	// One measured call of many rounds: AllocsPerRun truncates its
	// average, so a leak spread over several calls could hide.
	if a := testing.AllocsPerRun(1, rounds); a != 0 {
		t.Fatalf("warmed CDNA enqueue loop allocated %.0f times in %d rounds, want 0", a, n)
	}
	if r.drv.EnqueueErrs.Total() != 0 || r.drv.TxDropped.Total() != 0 {
		t.Fatalf("errs=%d drops=%d", r.drv.EnqueueErrs.Total(), r.drv.TxDropped.Total())
	}
	if len(r.drv.descFree) > 4 {
		t.Fatalf("descriptor pool grew to %d buffers", len(r.drv.descFree))
	}
}
