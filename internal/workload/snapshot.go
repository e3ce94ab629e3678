package workload

import (
	"fmt"

	"cdna/internal/sim"
	"cdna/internal/stats"
)

// EndpointState is one traffic slot's checkpoint image. The armed
// think/gap/burst/arrival timer rides the engine snapshot via the timer
// registry; this is the slot's own mutable state.
type EndpointState struct {
	RNG uint64
	T0  sim.Time
	On  bool

	// Open-loop state (Poisson, Pareto, Trace). The assigned trace rows
	// are rebuilt deterministically from the spec at restore; only the
	// replay cursor and base rides the snapshot. The backlog is its
	// count plus, for Poisson/Pareto, the oldest waiting flow's arrival
	// time and the RNG state its size draw replays from.
	InFlight  bool     `json:",omitempty"`
	Pending   int      `json:",omitempty"`
	Head      sim.Time `json:",omitempty"`
	Replay    uint64   `json:",omitempty"`
	Cursor    int      `json:",omitempty"`
	TraceBase sim.Time `json:",omitempty"`
}

// GeneratorState is the generator's checkpoint image.
type GeneratorState struct {
	Endpoints []EndpointState
	Requests  stats.CounterState
	Flows     stats.CounterState
	Arrivals  stats.CounterState
	Latency   stats.DistributionState
}

// State captures the generator and every endpoint in registration order.
func (g *Generator) State() GeneratorState {
	s := GeneratorState{
		Endpoints: make([]EndpointState, len(g.eps)),
		Requests:  g.Requests.State(),
		Flows:     g.Flows.State(),
		Arrivals:  g.Arrivals.State(),
		Latency:   g.Latency.State(),
	}
	for i, e := range g.eps {
		s.Endpoints[i] = EndpointState{
			RNG:       e.rng.State(),
			T0:        e.t0,
			On:        e.on,
			InFlight:  e.inFlight,
			Pending:   e.pending,
			Head:      e.head,
			Replay:    e.replay.State(),
			Cursor:    e.cursor,
			TraceBase: e.traceBase,
		}
	}
	return s
}

// SetState restores the generator into a freshly built machine with the
// same endpoint roster. A Trace generator first assigns its trace, as
// Launch would on a cold start.
func (g *Generator) SetState(s GeneratorState) error {
	g.assignTraceOnce()
	if len(s.Endpoints) != len(g.eps) {
		return fmt.Errorf("workload: endpoint roster mismatch: snapshot has %d, machine has %d",
			len(s.Endpoints), len(g.eps))
	}
	for i, es := range s.Endpoints {
		e := g.eps[i]
		e.rng.SetState(es.RNG)
		e.t0 = es.T0
		e.on = es.On
		e.inFlight = es.InFlight
		e.pending = es.Pending
		e.head = es.Head
		e.replay.SetState(es.Replay)
		e.cursor = es.Cursor
		e.traceBase = es.TraceBase
	}
	g.Requests.SetState(s.Requests)
	g.Flows.SetState(s.Flows)
	g.Arrivals.SetState(s.Arrivals)
	g.Latency.SetState(s.Latency)
	return nil
}
