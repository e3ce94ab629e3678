package workload

import (
	"testing"

	"cdna/internal/sim"
	"cdna/internal/transport"
)

// flowRecord is one open-loop flow: when it arrived and how many
// segments it carries.
type flowRecord struct {
	at   sim.Time
	segs int32
}

// TestBacklogReplayMatchesStoredFIFO pins the replayed backlog against
// the stored one it replaces: overloaded endpoints must open exactly the
// (arrival time, size) sequence a FIFO holding every arrival would have
// popped. The reference FIFO lives here: it is fed with the arrival
// stream as recorded when it happened — for Poisson/Pareto each arrival
// draws its size and then the next gap from the endpoint's RNG; for a
// trace the rows are the arrivals — and popped once per opened flow.
func TestBacklogReplayMatchesStoredFIFO(t *testing.T) {
	var rows []TraceEvent
	for i := 0; i < 3000; i++ {
		// Two directions, one row every 20µs each, 5–44 segments:
		// every row needs longer than that on the loop connection.
		rows = append(rows, TraceEvent{At: sim.Time(i/2) * 20 * sim.Microsecond,
			Src: i % 2, Dst: 1 - i%2, Segs: 5 + (i*7)%40})
	}
	RegisterTrace("backlog-replay", &FlowTrace{Events: rows})

	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"poisson-websearch", Spec{Kind: Poisson, FlowRate: 20000, SizeDist: SizeWebSearch}},
		{"pareto-datamining", Spec{Kind: Pareto, FlowRate: 50000, SizeDist: SizeDataMining}},
		{"pareto-pareto", Spec{Kind: Pareto, FlowRate: 20000, SizeDist: SizePareto}},
		{"trace", Spec{Kind: Trace, TracePath: MemPrefix + "backlog-replay"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const warmup, end = 30 * sim.Millisecond, 150 * sim.Millisecond
			eng := sim.New()
			g, err := NewGenerator(eng, tc.spec.Resolved(true, false))
			if err != nil {
				t.Fatal(err)
			}
			const n = 2
			for i := 0; i < n; i++ {
				ep := Endpoint{Fwd: loop(eng, 32),
					Local: transport.Addr{Host: i}, Remote: transport.Addr{Host: 1 - i}}
				if err := g.Add(ep); err != nil {
					t.Fatal(err)
				}
			}
			g.Launch(warmup) // assigns the trace rows

			refs := make([]*refBacklog, n)
			for i, e := range g.eps {
				ref := &refBacklog{e: e, launch: launchAt(warmup, i, n), rng: *e.rng}
				if tc.spec.Kind != Trace {
					ref.next = ref.launch + e.interArrival(&ref.rng)
				}
				refs[i] = ref
				e.OnFlowSetup = func() { ref.opened(t, eng.Now()) }
				e.OnFlowTeardown = func() { ref.closed(t) }
			}
			eng.Run(end)

			for i, ref := range refs {
				e := g.eps[i]
				if ref.done < 50 || ref.maxPending < 10 {
					t.Fatalf("endpoint %d not overloaded: %d flows done, backlog peaked at %d",
						i, ref.done, ref.maxPending)
				}
				ref.fill(end - 1) // Run(end) fires events before end
				if ref.fifo.Len() != e.pending {
					t.Fatalf("endpoint %d: %d flows still waiting, reference FIFO holds %d",
						i, e.pending, ref.fifo.Len())
				}
				if tc.spec.Kind != Trace && e.pending > 0 && e.head != ref.fifo.Peek().at {
					t.Fatalf("endpoint %d: oldest waiting flow arrived %v, reference %v",
						i, e.head, ref.fifo.Peek().at)
				}
			}
			var total int
			for _, ref := range refs {
				total += ref.arrivals
			}
			if uint64(total) != g.Arrivals.Total() {
				t.Fatalf("reference stream has %d arrivals by %v, generator counted %d",
					total, end, g.Arrivals.Total())
			}
		})
	}
}

// refBacklog is the stored-FIFO reference for one endpoint.
type refBacklog struct {
	e      *endpoint
	launch sim.Time

	// Poisson/Pareto: the arrival stream regenerated from a copy of the
	// endpoint's RNG; next is the next arrival's time.
	rng  sim.RNG
	next sim.Time
	// Trace: the next of the endpoint's rows to arrive.
	row int

	fifo     sim.FIFO[flowRecord]
	arrivals int

	// The flow on the connection: its expected size, and the
	// connection's delivered-byte count when it opened.
	want       int32
	startBytes uint64
	done       int
	maxPending int
}

// fill pushes every arrival up to now into the reference FIFO.
func (r *refBacklog) fill(now sim.Time) {
	if r.e.g.spec.Kind == Trace {
		for r.row < len(r.e.trace) && r.launch+r.e.trace[r.row].At <= now {
			ev := r.e.trace[r.row]
			r.fifo.Push(flowRecord{at: r.launch + ev.At, segs: traceSegs(ev)})
			r.row++
			r.arrivals++
		}
		return
	}
	for r.next <= now {
		r.fifo.Push(flowRecord{at: r.next, segs: r.e.sampleSegs(&r.rng)})
		r.next += r.e.interArrival(&r.rng)
		r.arrivals++
	}
}

// opened checks the flow the endpoint just opened against the
// reference FIFO's head.
func (r *refBacklog) opened(t *testing.T, now sim.Time) {
	r.fill(now)
	if r.fifo.Len() == 0 {
		t.Fatalf("flow opened at %v with no reference arrival waiting", now)
	}
	head := r.fifo.Pop()
	if r.e.t0 != head.at {
		t.Fatalf("flow %d opened with arrival time %v, stored FIFO has %v", r.done, r.e.t0, head.at)
	}
	r.want = head.segs
	r.startBytes = r.e.Fwd.Delivered.Total()
	if r.e.pending > r.maxPending {
		r.maxPending = r.e.pending
	}
}

// closed checks the completed flow carried the reference's size.
func (r *refBacklog) closed(t *testing.T) {
	got := (r.e.Fwd.Delivered.Total() - r.startBytes) / uint64(r.e.Fwd.SegSize)
	if got != uint64(r.want) {
		t.Fatalf("flow %d carried %d segments, stored FIFO has %d", r.done, got, r.want)
	}
	r.done++
}
