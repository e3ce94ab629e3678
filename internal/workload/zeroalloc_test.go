//go:build !race

package workload

import (
	"testing"

	"cdna/internal/sim"
	"cdna/internal/transport"
)

// TestBacklogArrivalAllocatesNothing pins the backlog's constant memory:
// with ≥10⁵ flows waiting behind a connection that never completes, a
// further arrival costs no allocation. Race builds are excluded (the
// detector's instrumentation allocates).
func TestBacklogArrivalAllocatesNothing(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	eng := sim.New()
	g, err := NewGenerator(eng, Spec{Kind: Poisson, FlowRate: 1e8, SizeDist: SizeWebSearch}.Resolved(true, false))
	if err != nil {
		t.Fatal(err)
	}
	// A black-hole connection: the first flow never completes (and
	// never retransmits within the test), so every later arrival waits.
	c := transport.NewConn(eng, 0, transport.DefaultSegSize, 32)
	c.RTO = 100 * sim.Second
	c.AttachSender(func(*transport.Segment) {})
	c.AttachReceiver(func(*transport.Segment) {})
	if err := g.Add(Endpoint{Fwd: c}); err != nil {
		t.Fatal(err)
	}
	g.Launch(0)
	e := g.eps[0]
	for e.pending < 100000 {
		eng.Run(eng.Now() + sim.Millisecond)
	}
	before := g.Arrivals.Total()
	// One measured call: AllocsPerRun truncates its average, so a
	// growth spread over several calls could hide.
	allocs := testing.AllocsPerRun(1, func() { eng.Run(eng.Now() + sim.Millisecond) })
	if arrived := g.Arrivals.Total() - before; arrived < 100000 {
		t.Fatalf("only %d arrivals measured", arrived)
	}
	if allocs != 0 {
		t.Fatalf("backlog of %d flows: %.0f allocations over %d arrivals, want 0",
			e.pending, allocs, g.Arrivals.Total()-before)
	}
}
