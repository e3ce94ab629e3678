//go:build !race

package ether_test

import (
	"testing"

	"cdna/internal/ether"
	"cdna/internal/sim"
)

// The steady-state frame path must be allocation-free: frames come from
// the arena's free list and every link traversal rides pooled events.
// Race builds are excluded (the detector's instrumentation allocates).
func TestPipeSteadyStateZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	eng := sim.New()
	a := ether.NewArena()
	p := ether.NewPipe(eng, 10.0, sim.Microsecond)
	p.Connect(ether.PortFunc(func(f *ether.Frame) { f.Release() }))
	src, dst := ether.MakeMAC(1, 0), ether.MakeMAC(2, 0)
	drain := func() { eng.Run(eng.Now() + sim.Second) }
	for i := 0; i < 8; i++ {
		p.Send(a.Get(src, dst, 1514, nil))
	}
	drain()

	news := a.News
	if n := testing.AllocsPerRun(200, func() {
		p.Send(a.Get(src, dst, 1514, nil))
		drain()
	}); n != 0 {
		t.Fatalf("steady-state frame lifecycle allocates %.1f/op, want 0", n)
	}
	if a.News != news {
		t.Fatalf("arena missed its free list in steady state: News %d -> %d", news, a.News)
	}
}

// A learned station's unicast frame through the bridge allocates
// nothing: the source re-learn is a lookup and forwarding is a map hit.
func TestBridgeInputSteadyStateZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	a := ether.NewArena()
	b := ether.NewBridge()
	sink := ether.PortFunc(func(f *ether.Frame) { f.Release() })
	b.AddPort(sink)
	b.AddPort(sink)
	src, dst := ether.MakeMAC(1, 0), ether.MakeMAC(2, 0)
	b.Input(1, a.Get(dst, src, 60, nil))
	b.Input(0, a.Get(src, dst, 1514, nil))

	if n := testing.AllocsPerRun(200, func() {
		b.Input(0, a.Get(src, dst, 1514, nil))
	}); n != 0 {
		t.Fatalf("steady-state bridge input allocates %.1f/op, want 0", n)
	}
	if b.Forwarded.Total() == 0 {
		t.Fatal("frames were not forwarded by unicast")
	}
}
