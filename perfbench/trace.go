package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"cdna/internal/bench"
	"cdna/internal/sim"
)

// Event attribution. Every simulator event carries a name; with a
// tracer attached the CPU and hypervisor decorate task names
// ("cpu.task:netback.tx", "cpu.task:hc:cdna_enqueue"), so each fired
// event names the module that asked for the work. familyRules maps
// those names to modules. Rules never overlap, so a name matches at
// most one of them; a name matching none is an error, which makes a
// new event kind fail the traced run instead of going unattributed.

// familyRule maps event names to a module: the exact name, or every
// name starting with prefix when the rule ends in '*'.
type familyRule struct {
	pattern string
	module  string
}

var familyRules = []familyRule{
	{"bg", "bench"},
	{"fault", "bench"},
	{"cpu.task:bg.*", "bench"},

	{"cpu.switch", "cpu"},

	{"bus.dma:txdesc", "nic"},
	{"bus.dma:rxdesc", "nic"},
	{"bus.dma:txdata", "nic"},
	{"bus.dma:rxdata", "nic"},
	{"nicproc:tx", "nic"},
	{"nicproc:rx", "nic"},
	{"nic.pace", "nic"},
	{"coalesce", "nic"},
	{"bus.dma:intel.*", "intelnic"},
	{"bus.dma:ricenic.*", "ricenic"},
	{"nicproc:mboxdecode", "ricenic"},

	{"cpu.task:hc:*", "core"},

	{"timer.tick", "xen"},
	{"cpu.task:tick", "xen"},
	{"cpu.task:evtchn_send", "xen"},
	{"cpu.task:virq:*", "xen"},
	{"cpu.isr:irq:*", "xen"},
	{"cpu.isr:timer", "xen"},
	{"cpu.isr:cdna.bitvec", "xen"},

	{"cpu.task:netback.*", "backend"},
	{"cpu.task:netfront.*", "backend"},

	{"cpu.task:app.*", "guest"},
	{"cpu.task:stack.*", "guest"},
	{"cpu.task:cdna.*", "guest"},
	{"cpu.task:ndrv.*", "guest"},
	{"cpu.task:attack.*", "guest"},

	{"ether.deliver", "ether"},
	{"topo.*", "topo"},
	{"transport.*", "transport"},
	{"conn.start", "workload"},
	{"workload.*", "workload"},
}

func (r familyRule) matches(name string) bool {
	if p, ok := strings.CutSuffix(r.pattern, "*"); ok {
		return strings.HasPrefix(name, p)
	}
	return name == r.pattern
}

// moduleOf returns the module an event name belongs to, or an error
// when no rule (or, by construction impossible, more than one) claims
// it.
func moduleOf(name string) (string, error) {
	module := ""
	for _, r := range familyRules {
		if !r.matches(name) {
			continue
		}
		if module != "" {
			return "", fmt.Errorf("event %q matches more than one family", name)
		}
		module = r.module
	}
	if module == "" {
		return "", fmt.Errorf("event %q belongs to no module family", name)
	}
	return module, nil
}

// eventKinds are the per-layer event counters: the metric name and
// the event-name prefix it counts. Unlike families they may overlap (a
// hypercall is also a CPU task).
var eventKinds = []struct{ metric, prefix string }{
	{"cpu.task_events", "cpu.task:"},
	{"cpu.isr_events", "cpu.isr:"},
	{"cpu.switches", "cpu.switch"},
	{"bus.dma_events", "bus.dma:"},
	{"nic.proc_events", "nicproc:"},
	{"nic.pace_events", "nic.pace"},
	{"core.hypercall_events", "cpu.task:hc:"},
	{"xen.virq_events", "cpu.task:virq:"},
	{"ether.deliver_events", "ether.deliver"},
	{"topo.forward_events", "topo.forward"},
	{"workload.arrival_events", "workload.arrival"},
	{"transport.rto_events", "transport.rto"},
}

// eventCounts aggregates fired events by exact name, plus the queue
// population seen before each one.
type eventCounts struct {
	byName     map[string]uint64
	total      uint64
	pendingSum uint64
}

func newEventCounts() *eventCounts { return &eventCounts{byName: make(map[string]uint64)} }

func (c *eventCounts) merge(o *eventCounts) {
	for n, v := range o.byName {
		c.byName[n] += v
	}
	c.total += o.total
	c.pendingSum += o.pendingSum
}

// byModule folds the name counts into module totals; an unattributed
// name is an error.
func (c *eventCounts) byModule() (map[string]uint64, error) {
	out := make(map[string]uint64)
	for n, v := range c.byName {
		m, err := moduleOf(n)
		if err != nil {
			return nil, err
		}
		out[m] += v
	}
	return out, nil
}

func (c *eventCounts) kind(prefix string) uint64 {
	var n uint64
	for name, v := range c.byName {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// traceBatch is how many fired events the flight recorder holds
// between drains: the ring is read once per batch, not per event.
const traceBatch = 4096

// tracedRunTo advances a single-engine machine to absolute time until
// one event at a time (Engine.NextAt/Step) and counts every fired event
// by name. It ends with Machine.RunTo(until), which fires nothing more
// but lands the clock exactly where an untraced run leaves it.
func tracedRunTo(m *bench.Machine, tr *sim.Tracer, until sim.Time, c *eventCounts) {
	eng := m.Eng
	n := 0
	drain := func() {
		for _, e := range tr.Last(n) {
			c.byName[e.Name]++
		}
		c.total += uint64(n)
		n = 0
	}
	for {
		at, ok := eng.NextAt()
		if !ok || at >= until {
			break
		}
		c.pendingSum += uint64(eng.Pending())
		eng.Step()
		if n++; n == traceBatch {
			drain()
		}
	}
	drain()
	m.RunTo(until)
}

// span is one timed call into a layer's public function.
type span struct {
	Name   string  `json:"name"`
	Point  int     `json:"point"` // grid point index; -1 for sweep-level spans
	StartS float64 `json:"start_s"`
	DurS   float64 `json:"dur_s"`
	Parent string  `json:"parent,omitempty"`
}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// time runs fn inside a span.
func (l *spanLog) time(name, parent string, point int, fn func()) {
	if l == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	d := time.Since(start)
	l.mu.Lock()
	l.spans = append(l.spans, span{Name: name, Point: point, StartS: start.Sub(l.origin).Seconds(), DurS: d.Seconds(), Parent: parent})
	l.mu.Unlock()
}

// total returns the summed duration of every span with the given name
// and parent ("" matches any parent).
func (l *spanLog) total(name, parent string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var s float64
	for _, sp := range l.spans {
		if sp.Name == name && (parent == "" || sp.Parent == parent) {
			s += sp.DurS
		}
	}
	return s
}

// sorted returns the spans ordered by start time.
func (l *spanLog) sorted() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]span(nil), l.spans...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].StartS < out[j].StartS })
	return out
}
