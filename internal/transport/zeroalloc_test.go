//go:build !race

package transport_test

import (
	"testing"

	"cdna/internal/sim"
	"cdna/internal/transport"
)

// A bounded send's full round trip — pump, delivery, delayed ack,
// completion — must be allocation-free in steady state when the
// connection draws from segment pools. Race builds are excluded (the
// detector's instrumentation allocates).
func TestSegmentRoundTripZeroAlloc(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	eng := sim.New()
	pool := transport.NewSegPool()
	c := transport.NewConn(eng, 0, transport.DefaultSegSize, 32)
	c.SetPool(pool)
	var wire sim.FIFO[*transport.Segment]
	deliver := func() {
		s := wire.Pop()
		transport.Dispatch(s)
		s.Release()
	}
	c.AttachSender(func(s *transport.Segment) {
		wire.Push(s)
		eng.After(10*sim.Microsecond, "wire", deliver)
	})
	c.AttachReceiver(func(s *transport.Segment) {
		wire.Push(s)
		eng.After(10*sim.Microsecond, "wire", deliver)
	})
	drain := func() { eng.Run(eng.Now() + sim.Millisecond) }
	c.Send(64)
	drain()

	news := pool.News
	if a := testing.AllocsPerRun(200, func() {
		c.Send(2)
		drain()
		c.Latency.Reset()
	}); a != 0 {
		t.Fatalf("steady-state segment round trip allocates %.1f/op, want 0", a)
	}
	if pool.News != news {
		t.Fatalf("pool missed its free list in steady state: News %d -> %d", news, pool.News)
	}
}
