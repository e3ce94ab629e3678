package workload

import (
	"math"

	"cdna/internal/sim"
)

// Open-loop flow generation (Poisson, Pareto, Trace): arrivals are
// driven by a modeled client population (or a recorded trace), not by
// completions. One flow is in flight on the connection at a time;
// arrivals that find it busy wait in a per-endpoint backlog, and latency
// is measured from *arrival* to completion — queueing delay included —
// so overload shows up as response-time collapse, exactly what a
// closed-loop generator structurally cannot exhibit.
//
// Under overload the backlog's count grows without bound, but its
// memory does not: the waiting flows are never stored, only counted.
// Their arrival times and sizes are a deterministic function of the
// arrival stream, so the endpoint replays the stream instead. For
// Poisson and Pareto, each arrival draws its size and then the gap to
// the next arrival from the endpoint's RNG, and arrival k+1 fires at
// at_k + gap_{k+1}. When the backlog goes from empty to one flow, the
// endpoint copies the RNG just before that flow's size draw and records
// its arrival time; opening a waiting flow redraws its size and the
// following gap from the copy, and advances the head time by the gap.
// For Trace, the waiting flows are simply the last `pending` rows
// behind the replay cursor.

// sizeBin is one step of a discrete flow-size CDF: cumulative
// probability up to and including this size.
type sizeBin struct {
	q    float64
	segs int32
}

// maxFlowSegs caps sampled flow sizes (~6 MB at the default MSS) so a
// single heavy-tail draw cannot occupy a link for a whole measurement
// window.
const maxFlowSegs = 4096

// websearchBins approximates the web-search flow-size CDF of the DCTCP
// lineage (shape-preserving, in segments at the default MSS): mostly
// small-to-mid flows with a modest heavy tail.
var websearchBins = []sizeBin{
	{0.15, 2}, {0.40, 7}, {0.60, 20}, {0.80, 70}, {0.92, 230}, {0.98, 700}, {1.00, 1400},
}

// dataminingBins approximates the data-mining CDF: overwhelmingly tiny
// flows and a thin tail of very large ones.
var dataminingBins = []sizeBin{
	{0.50, 1}, {0.78, 2}, {0.90, 7}, {0.96, 50}, {0.99, 350}, {1.00, 2800},
}

// pickBin returns the size whose CDF step covers u.
func pickBin(bins []sizeBin, u float64) int32 {
	for _, b := range bins {
		if u <= b.q {
			return b.segs
		}
	}
	return bins[len(bins)-1].segs
}

// sampleSegs draws one flow size from the spec's distribution.
func (e *endpoint) sampleSegs(rng *sim.RNG) int32 {
	s := e.g.spec
	switch s.SizeDist {
	case SizePareto:
		v := rng.Pareto(s.ParetoAlpha, float64(s.FlowSegs))
		if v > maxFlowSegs {
			v = maxFlowSegs
		}
		return int32(math.Ceil(v))
	case SizeWebSearch:
		return pickBin(websearchBins, rng.Float64())
	case SizeDataMining:
		return pickBin(dataminingBins, rng.Float64())
	default:
		return int32(s.FlowSegs)
	}
}

// interArrival draws the gap to the endpoint's next flow arrival. The
// mean is 1/(FlowRate*Clients); Poisson draws exponential gaps, Pareto
// heavy-tailed ones with the same mean (bursts and long silences).
func (e *endpoint) interArrival(rng *sim.RNG) sim.Time {
	s := e.g.spec
	mean := float64(sim.Second) / (s.FlowRate * float64(s.Clients))
	var v float64
	if s.Kind == Pareto {
		xm := mean * (s.ParetoAlpha - 1) / s.ParetoAlpha
		v = rng.Pareto(s.ParetoAlpha, xm)
	} else {
		v = rng.Exp(mean)
	}
	if v < 1 {
		v = 1
	}
	return sim.Time(v)
}

// traceSegs is a trace row's flow size, capped like sampled sizes.
func traceSegs(ev TraceEvent) int32 {
	if ev.Segs > maxFlowSegs {
		return maxFlowSegs
	}
	return int32(ev.Segs)
}

// startOpenLoop is the Poisson/Pareto launch event: arm the first
// arrival one draw away.
func (e *endpoint) startOpenLoop() {
	e.timer.ArmAfter(e.interArrival(e.rng))
}

// onArrival is the Poisson/Pareto arrival event: draw the flow's size,
// re-arm the arrival process, and admit the flow. The first flow to
// wait snapshots the RNG before its size draw, so opening it later
// replays that draw and the gap after it.
func (e *endpoint) onArrival() {
	e.g.Arrivals.Inc()
	if e.inFlight && e.pending == 0 {
		e.replay = *e.rng
		e.head = e.g.eng.Now()
	}
	segs := e.sampleSegs(e.rng)
	e.timer.ArmAfter(e.interArrival(e.rng))
	e.admit(segs)
}

// admit starts an arriving flow at once on an idle connection, or
// counts it into the backlog (its size is replayed when it opens). The
// invariant pending > 0 ⇒ inFlight holds because a completion always
// opens the next waiting flow, so an arrival finding the connection
// idle is the only flow there is.
func (e *endpoint) admit(segs int32) {
	if e.inFlight {
		e.pending++
		return
	}
	if e.pending > 0 {
		panic("workload: open-loop backlog waiting on an idle connection")
	}
	e.beginFlow(e.g.eng.Now(), segs)
}

// startTrace is the Trace launch event: position the cursor and arm
// the first recorded arrival (trace times are relative to launch).
func (e *endpoint) startTrace() {
	if e.cursor >= len(e.trace) {
		return
	}
	e.traceBase = e.g.eng.Now()
	e.timer.Arm(e.traceBase + e.trace[e.cursor].At)
}

// onTraceArrival replays the cursor's event, arms the next one, and
// admits the flow; waiting rows are trace[cursor-pending : cursor].
func (e *endpoint) onTraceArrival() {
	ev := e.trace[e.cursor]
	e.cursor++
	e.g.Arrivals.Inc()
	if e.cursor < len(e.trace) {
		e.timer.Arm(e.traceBase + e.trace[e.cursor].At)
	}
	e.admit(traceSegs(ev))
}

// startNextFlow opens the backlog's oldest waiting flow, replaying its
// arrival time and size.
func (e *endpoint) startNextFlow() {
	if e.g.spec.Kind == Trace {
		ev := e.trace[e.cursor-e.pending]
		e.pending--
		e.beginFlow(e.traceBase+ev.At, traceSegs(ev))
		return
	}
	at := e.head
	segs := e.sampleSegs(&e.replay)
	e.head += e.interArrival(&e.replay)
	e.pending--
	e.beginFlow(at, segs)
}

// beginFlow opens one flow that arrived at `at` on the connection:
// per-flow setup cost, fresh slow start, one delivery mark at the end.
func (e *endpoint) beginFlow(at sim.Time, segs int32) {
	e.inFlight = true
	e.t0 = at // arrival time: latency includes backlog queueing
	if e.OnFlowSetup != nil {
		e.OnFlowSetup()
	}
	e.Fwd.ResetSlowStart()
	e.Fwd.ExpectDelivery(int(segs))
	e.Fwd.Send(int(segs))
}

// onOpenFlowDone runs at the sender when the in-flight flow is fully
// acknowledged: charge teardown, record the open-loop response time,
// and open the next waiting flow.
func (e *endpoint) onOpenFlowDone() {
	if e.OnFlowTeardown != nil {
		e.OnFlowTeardown()
	}
	e.g.Flows.Inc()
	e.g.Latency.Observe(float64(e.g.eng.Now()-e.t0) / 1000)
	e.inFlight = false
	if e.pending > 0 {
		e.startNextFlow()
	}
}
