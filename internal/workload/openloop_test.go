package workload

import (
	"strings"
	"testing"

	"cdna/internal/sim"
	"cdna/internal/transport"
)

func TestOpenLoopKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Poisson, Pareto, Trace} {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("%v round-tripped to %v", k, back)
		}
	}
	for _, d := range []SizeDist{SizeFixed, SizePareto, SizeWebSearch, SizeDataMining} {
		b, err := d.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back SizeDist
		if err := back.UnmarshalText(b); err != nil {
			t.Fatal(err)
		}
		if back != d {
			t.Fatalf("%v round-tripped to %v", d, back)
		}
	}
	if _, err := ParseSizeDist("wat"); err == nil {
		t.Fatal("unknown size distribution accepted")
	}
}

func TestOpenLoopValidate(t *testing.T) {
	cases := []Spec{
		{Kind: Poisson, FlowRate: -1},
		{Kind: Poisson, Clients: -2},
		{Kind: Pareto, ParetoAlpha: 1.0},
		{Kind: Pareto, ParetoAlpha: 0.5},
		{Kind: Poisson, SizeDist: SizeDist(77)},
		{Kind: Trace}, // no path
		{Kind: Poisson, TracePath: "x.csv"},
	}
	for _, s := range cases {
		if err := s.Validate(); err == nil {
			t.Fatalf("invalid spec accepted: %+v", s)
		}
	}
	if err := (Spec{Kind: Poisson}).Validate(); err != nil {
		t.Fatalf("plain poisson rejected: %v", err)
	}
}

func TestPoissonOpenLoop(t *testing.T) {
	eng := sim.New()
	spec := Spec{Kind: Poisson, FlowRate: 2000}.Resolved(true, false)
	g, err := NewGenerator(eng, spec)
	if err != nil {
		t.Fatal(err)
	}
	setups := 0
	if err := g.Add(Endpoint{Fwd: loop(eng, 32), OnFlowSetup: func() { setups++ }}); err != nil {
		t.Fatal(err)
	}
	g.Launch(30 * sim.Millisecond)
	eng.Run(100 * sim.Millisecond)
	a, f := g.Arrivals.Total(), g.Flows.Total()
	if a == 0 || f == 0 {
		t.Fatalf("open loop idle: %d arrivals, %d flows", a, f)
	}
	if f > a {
		t.Fatalf("completed %d flows from only %d arrivals", f, a)
	}
	// ~2000/s over ~98ms: the arrival process must be in the right
	// decade, independent of service behaviour.
	if a < 80 || a > 800 {
		t.Fatalf("poisson arrivals = %d, want ~200", a)
	}
	if setups == 0 || g.Latency.Count() == 0 {
		t.Fatalf("flow lifecycle unobserved: setups=%d latency samples=%d", setups, g.Latency.Count())
	}
}

// TestOpenLoopOverloadGrowsLatency is the structural point of open-loop
// load: arrivals do not slow down when the fabric saturates, so response
// time (arrival to completion, backlog included) collapses. A
// closed-loop generator cannot show this.
func TestOpenLoopOverloadGrowsLatency(t *testing.T) {
	run := func(rate float64) (p90 float64, backlog uint64) {
		eng := sim.New()
		g, err := NewGenerator(eng, Spec{Kind: Poisson, FlowRate: rate}.Resolved(true, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(Endpoint{Fwd: loop(eng, 32)}); err != nil {
			t.Fatal(err)
		}
		g.Launch(30 * sim.Millisecond)
		eng.Run(150 * sim.Millisecond)
		return g.Latency.Quantile(0.9), g.Arrivals.Total() - g.Flows.Total()
	}
	p90Light, _ := run(200)
	p90Heavy, backlog := run(50000)
	if p90Heavy < 4*p90Light {
		t.Fatalf("overload p90 %.1fµs not ≫ light-load p90 %.1fµs", p90Heavy, p90Light)
	}
	if backlog == 0 {
		t.Fatal("overloaded endpoint accrued no backlog")
	}
}

func TestParetoArrivalsDifferFromPoisson(t *testing.T) {
	run := func(kind Kind) uint64 {
		eng := sim.New()
		g, err := NewGenerator(eng, Spec{Kind: kind, FlowRate: 2000}.Resolved(true, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(Endpoint{Fwd: loop(eng, 32)}); err != nil {
			t.Fatal(err)
		}
		g.Launch(30 * sim.Millisecond)
		eng.Run(100 * sim.Millisecond)
		return g.Arrivals.Total()
	}
	po, pa := run(Poisson), run(Pareto)
	if po == 0 || pa == 0 {
		t.Fatalf("arrival process idle: poisson=%d pareto=%d", po, pa)
	}
	if po == pa {
		t.Fatalf("pareto arrivals identical to poisson (%d) — heavy tail not wired", po)
	}
}

func TestSizeDistributionsSample(t *testing.T) {
	for _, d := range []SizeDist{SizePareto, SizeWebSearch, SizeDataMining} {
		eng := sim.New()
		spec := Spec{Kind: Poisson, FlowRate: 5000, SizeDist: d}.Resolved(true, false)
		g, err := NewGenerator(eng, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Add(Endpoint{Fwd: loop(eng, 32)}); err != nil {
			t.Fatal(err)
		}
		g.Launch(10 * sim.Millisecond)
		eng.Run(100 * sim.Millisecond)
		if g.Flows.Total() == 0 {
			t.Fatalf("%v: no flows completed", d)
		}
		// Sizes vary: over many flows the per-endpoint sampler must have
		// drawn more than one size; verify indirectly via the latency
		// spread (identical flows on a fixed loop have identical latency
		// when unqueued — heavy and tiny flows cannot).
		if g.Latency.Quantile(0.99) <= g.Latency.Quantile(0.05) {
			t.Fatalf("%v: no size spread (p99 %.1f <= p05 %.1f)",
				d, g.Latency.Quantile(0.99), g.Latency.Quantile(0.05))
		}
	}
}

func TestOpenLoopDeterminism(t *testing.T) {
	for _, kind := range []Kind{Poisson, Pareto} {
		run := func() (uint64, uint64, float64) {
			eng := sim.New()
			g, err := NewGenerator(eng, Spec{Kind: kind, FlowRate: 3000, SizeDist: SizeWebSearch}.Resolved(true, false))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := g.Add(Endpoint{Fwd: loop(eng, 32)}); err != nil {
					t.Fatal(err)
				}
			}
			g.Launch(30 * sim.Millisecond)
			eng.Run(100 * sim.Millisecond)
			return g.Arrivals.Total(), g.Flows.Total(), g.Latency.Quantile(0.9)
		}
		a1, f1, q1 := run()
		a2, f2, q2 := run()
		if a1 != a2 || f1 != f2 || q1 != q2 {
			t.Fatalf("%v reruns differ: (%d,%d,%v) vs (%d,%d,%v)", kind, a1, f1, q1, a2, f2, q2)
		}
	}
}

func TestParseTrace(t *testing.T) {
	csv := `arrival,src,dst,bytes
# comment line
0.002,0,1,3000
0.001,1,0,1448

0.001,0,1,100
`
	tr, err := ParseTrace(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 3 {
		t.Fatalf("parsed %d events, want 3", len(tr.Events))
	}
	// Sorted by arrival, stable for ties (file order preserved).
	if tr.Events[0].Src != 1 || tr.Events[1].Src != 0 || tr.Events[2].At != 2*sim.Millisecond {
		t.Fatalf("sort order wrong: %+v", tr.Events)
	}
	if tr.Events[2].Segs != 3 { // ceil(3000/1448)
		t.Fatalf("3000 bytes = %d segs, want 3", tr.Events[2].Segs)
	}
	for _, bad := range []string{
		"", "0.1,0,1", "x,y,z,w\n0.1,a,1,10", "0.1,0,1,-5", "-0.1,0,1,10",
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Fatalf("bad trace accepted: %q", bad)
		}
	}
}

// TestSmokeTraceFixture pins the checked-in trace fixture that `make
// topo-smoke` replays through cdnasim: it must parse, stay sorted, and
// target an incast root (every destination is host 0).
func TestSmokeTraceFixture(t *testing.T) {
	tr, err := LoadTrace("testdata/smoke_trace.csv")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 120 {
		t.Fatalf("fixture has %d events, want 120", len(tr.Events))
	}
	for i, ev := range tr.Events {
		if i > 0 && ev.At < tr.Events[i-1].At {
			t.Fatalf("event %d out of order: %v after %v", i, ev.At, tr.Events[i-1].At)
		}
		if ev.Dst != 0 || ev.Src < 1 || ev.Src > 3 {
			t.Fatalf("event %d is not spoke→root traffic: %+v", i, ev)
		}
		if ev.Segs < 1 {
			t.Fatalf("event %d has no payload: %+v", i, ev)
		}
	}
}

func TestTraceReplay(t *testing.T) {
	RegisterTrace("replay", &FlowTrace{Events: []TraceEvent{
		{At: 0, Src: 0, Dst: 1, Segs: 2},
		{At: sim.Millisecond, Src: 0, Dst: 1, Segs: 3},
		{At: 2 * sim.Millisecond, Src: 7, Dst: 9, Segs: 1}, // no such endpoint
	}})
	eng := sim.New()
	g, err := NewGenerator(eng, Spec{Kind: Trace, TracePath: MemPrefix + "replay"}.Resolved(true, false))
	if err != nil {
		t.Fatal(err)
	}
	ep := Endpoint{
		Fwd:    loop(eng, 32),
		Local:  transport.Addr{Host: 0},
		Remote: transport.Addr{Host: 1},
	}
	if err := g.Add(ep); err != nil {
		t.Fatal(err)
	}
	g.Launch(30 * sim.Millisecond)
	eng.Run(100 * sim.Millisecond)
	if skipped := g.TraceSkipped(); skipped != 1 {
		t.Fatalf("TraceSkipped = %d, want 1", skipped)
	}
	if a := g.Arrivals.Total(); a != 2 {
		t.Fatalf("replayed %d arrivals, want 2", a)
	}
	if f := g.Flows.Total(); f != 2 {
		t.Fatalf("completed %d flows, want 2", f)
	}
	if _, err := NewGenerator(eng, Spec{Kind: Trace, TracePath: MemPrefix + "nope"}.Resolved(true, false)); err == nil {
		t.Fatal("unknown mem trace accepted")
	}
}
