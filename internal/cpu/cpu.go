// Package cpu models a single host CPU shared by a hypervisor and a set
// of domains (virtual machines), with Xenoprof-style time accounting.
//
// Work arrives as short Tasks (sub-microsecond to a few microseconds)
// appended to per-domain queues or to a global interrupt-service queue.
// The CPU runs one task at a time; the scheduler is a boost-on-wake round
// robin approximating Xen's credit scheduler for I/O-bound domains:
// a domain that transitions from blocked to runnable is placed on a boost
// queue and preferred over domains that exhausted their slice. Domain
// switches cost SwitchCost, charged to the hypervisor — this cost is what
// makes many-guest configurations degrade, as the paper's Figures 3–4
// show.
//
// Time is charged per (domain kind, category): hypervisor time is global,
// kernel/user time is split between the driver domain and guests, and
// idle time accrues whenever no work is runnable. Profile() reports the
// same six columns as the paper's Tables 2–4.
package cpu

import (
	"fmt"

	"cdna/internal/sim"
	"cdna/internal/stats"
)

// Cat classifies where a task's time is charged.
type Cat uint8

// Task categories.
const (
	CatKernel Cat = iota // guest or driver-domain kernel (OS) time
	CatUser              // application time
	CatHyp               // hypervisor time (hypercalls, ISRs, switches)
)

// Kind classifies a domain for profile aggregation.
type Kind uint8

// Domain kinds.
const (
	KindGuest  Kind = iota // a guest VM (or the host OS in native mode)
	KindDriver             // the privileged driver domain
)

// Task is one unit of CPU work.
type Task struct {
	Cat  Cat
	Dur  sim.Time
	Name string
	Fn   func() // runs on completion, in scheduling order; may be nil
}

// Domain is a schedulable virtual machine (or the native host OS).
type Domain struct {
	ID   int
	Name string
	Kind Kind

	cpu      *CPU
	q        sim.FIFO[Task]
	state    domState
	boosted  bool
	sliceEnd sim.Time

	seqAtDesched   uint64 // global switch sequence when last descheduled
	ranBefore      bool
	pendingPenalty sim.Time // cache-refill charge for the next task

	// window accounting
	kernelT, userT, hypT sim.Time
	wakes                stats.Counter
}

type domState uint8

const (
	domBlocked domState = iota
	domQueued           // on a run queue
	domRunning
)

// Params configures the scheduler.
type Params struct {
	SwitchCost sim.Time // hypervisor cost per domain switch
	Slice      sim.Time // scheduling quantum

	// Cache pollution: when a domain is rescheduled after other domains
	// ran, its working set has been evicted and its first stretch of
	// execution runs slower. The penalty is CacheRefillUnit per
	// intervening domain switch, capped at CacheRefillCap, charged to
	// the domain's own first task. With one busy domain the penalty is
	// ~zero (warm caches); with many domains it approaches the cap —
	// this is the dominant mechanism behind the paper's multi-guest
	// degradation (Figures 3–4).
	CacheRefillUnit sim.Time
	CacheRefillCap  sim.Time
}

// DefaultParams mirrors a tuned Xen credit scheduler for I/O workloads
// on the paper's Opteron 250 (1 MB L2).
func DefaultParams() Params {
	return Params{
		SwitchCost:      900 * sim.Nanosecond,
		Slice:           300 * sim.Microsecond,
		CacheRefillUnit: 2500 * sim.Nanosecond,
		CacheRefillCap:  10 * sim.Microsecond,
	}
}

// CPU is the single shared processor.
type CPU struct {
	eng    *sim.Engine
	params Params

	// The scheduler queues are ring buffers, not slices: tasks arrive
	// and retire millions of times per simulated second, and an
	// append/re-slice queue reallocates continually (the backing array
	// can never be reused once the head has advanced). The rings find
	// their working depth during warmup and then allocate nothing.
	domains []*Domain
	boostQ  sim.FIFO[*Domain]
	runQ    sim.FIFO[*Domain]
	isrQ    sim.FIFO[Task]

	cur         *Domain // domain whose task is executing (nil for ISR/idle)
	busy        bool
	idleSince   sim.Time
	switchSeq   uint64
	boostStreak int

	// The CPU executes one thing at a time, so exactly one completion
	// event is outstanding; its state lives here instead of in a fresh
	// closure per dispatch, and the completion callbacks below are bound
	// once in New. This is what keeps the per-task hot path free of
	// allocations.
	pendDom  *Domain
	pendTask Task
	pendISR  Task

	switchDoneFn, taskDoneFn, isrDoneFn func()

	// window accounting
	hypT, idleT sim.Time
	winStart    sim.Time
	switches    stats.Counter
}

// New creates a CPU attached to the engine.
func New(eng *sim.Engine, p Params) *CPU {
	c := &CPU{eng: eng, params: p, idleSince: eng.Now()}
	c.switchDoneFn = c.switchDone
	c.taskDoneFn = c.taskDone
	c.isrDoneFn = c.isrDone
	return c
}

// NewDomain registers a domain with the scheduler.
func (c *CPU) NewDomain(name string, kind Kind) *Domain {
	d := &Domain{ID: len(c.domains), Name: name, Kind: kind, cpu: c}
	c.domains = append(c.domains, d)
	return d
}

// Domains returns all registered domains.
func (c *CPU) Domains() []*Domain { return c.domains }

// Exec queues a task on the domain. If the domain was blocked it becomes
// runnable (boosted). Duration must be non-negative; zero-duration tasks
// are allowed for pure control flow.
func (d *Domain) Exec(cat Cat, dur sim.Time, name string, fn func()) {
	if dur < 0 {
		panic(fmt.Sprintf("cpu: negative task duration for %s", name))
	}
	d.q.Push(Task{Cat: cat, Dur: dur, Name: name, Fn: fn})
	if d.state == domBlocked {
		d.state = domQueued
		d.boosted = true
		d.wakes.Inc()
		d.cpu.boostQ.Push(d)
	}
	d.cpu.kick()
}

// ExecFront queues a task at the head of the domain's queue: the
// domain-local interrupt path (a virtual interrupt's top half preempts
// process context inside the guest, it does not wait behind queued
// kernel work).
func (d *Domain) ExecFront(cat Cat, dur sim.Time, name string, fn func()) {
	if dur < 0 {
		panic(fmt.Sprintf("cpu: negative task duration for %s", name))
	}
	d.q.PushFront(Task{Cat: cat, Dur: dur, Name: name, Fn: fn})
	if d.state == domBlocked {
		d.state = domQueued
		d.boosted = true
		d.wakes.Inc()
		d.cpu.boostQ.Push(d)
	}
	d.cpu.kick()
}

// QueueLen returns the number of tasks waiting on the domain.
func (d *Domain) QueueLen() int { return d.q.Len() }

// Wakes returns the windowed count of blocked→runnable transitions.
func (d *Domain) Wakes() *stats.Counter { return &d.wakes }

// ExecISR queues hypervisor interrupt-service work. ISRs preempt domains
// at task boundaries (tasks are short, so dispatch latency is bounded by
// a few microseconds, matching real top-half latency).
func (c *CPU) ExecISR(dur sim.Time, name string, fn func()) {
	if dur < 0 {
		panic(fmt.Sprintf("cpu: negative ISR duration for %s", name))
	}
	c.isrQ.Push(Task{Cat: CatHyp, Dur: dur, Name: name, Fn: fn})
	c.kick()
}

func (c *CPU) kick() {
	if c.busy {
		return
	}
	c.busy = true
	// Close the idle span.
	c.idleT += c.eng.Now() - c.idleSince
	c.dispatch()
}

// dispatch picks and starts the next task. Caller guarantees c.busy.
func (c *CPU) dispatch() {
	// 1. Interrupt service work first.
	if c.isrQ.Len() > 0 {
		c.runTask(nil, c.isrQ.Pop())
		return
	}
	// 2. Pick a domain: boosted wakers first, then round robin. The
	// boost streak is bounded so continuously runnable domains cannot
	// starve behind an endless stream of wakers — the analogue of the
	// credit scheduler demoting domains that exceed their credits.
	const boostLimit = 4
	var d *Domain
	switch {
	case c.boostQ.Len() > 0 && (c.runQ.Len() == 0 || c.boostStreak < boostLimit):
		d = c.boostQ.Pop()
		c.boostStreak++
	case c.runQ.Len() > 0:
		d = c.runQ.Pop()
		c.boostStreak = 0
	default:
		// Idle. c.cur is preserved: re-dispatching the same domain after
		// an idle gap costs no switch (its state is still loaded).
		c.busy = false
		c.idleSince = c.eng.Now()
		return
	}
	if d.state != domQueued || d.q.Len() == 0 {
		// Stale queue entry (domain drained or re-queued); try again.
		c.dispatch()
		return
	}
	var switchCost sim.Time
	if c.cur != d {
		switchCost = c.params.SwitchCost
		c.switches.Inc()
		if c.cur != nil {
			c.cur.seqAtDesched = c.switchSeq
		}
		c.switchSeq++
		// Cache-refill penalty: scaled by how many switches happened
		// since this domain last ran (how polluted its cache is).
		if c.params.CacheRefillUnit > 0 {
			var pen sim.Time
			if !d.ranBefore {
				pen = c.params.CacheRefillCap
			} else {
				intervening := c.switchSeq - d.seqAtDesched - 1
				pen = sim.Time(intervening) * c.params.CacheRefillUnit
				if pen > c.params.CacheRefillCap {
					pen = c.params.CacheRefillCap
				}
			}
			d.pendingPenalty = pen
		}
		d.ranBefore = true
	}
	c.cur = d
	d.state = domRunning
	d.boosted = false
	d.sliceEnd = c.eng.Now() + switchCost + c.params.Slice
	if switchCost > 0 {
		// switchCost is always params.SwitchCost here, so the callback
		// needs only the pending domain.
		c.pendDom = d
		c.eng.After(switchCost, "cpu.switch", c.switchDoneFn)
		return
	}
	c.startDomainTask(d)
}

func (c *CPU) switchDone() {
	c.hypT += c.params.SwitchCost
	c.startDomainTask(c.pendDom)
}

func (c *CPU) startDomainTask(d *Domain) {
	t := d.q.Pop()
	// The cache-refill penalty inflates the first task after a switch,
	// charged to that task's own category (the misses occur during the
	// domain's execution, not the hypervisor's).
	t.Dur += d.pendingPenalty
	d.pendingPenalty = 0
	c.pendDom, c.pendTask = d, t
	// The bare task name keeps the hot path allocation-free; the
	// flight-recorder prefix is only built when someone is recording.
	name := t.Name
	if c.eng.Traced() {
		name = "cpu.task:" + t.Name
	}
	c.eng.After(t.Dur, name, c.taskDoneFn)
}

func (c *CPU) taskDone() {
	d, t := c.pendDom, c.pendTask
	c.pendTask.Fn = nil // release the callback before t.Fn reschedules
	c.accountDomain(d, t)
	if t.Fn != nil {
		t.Fn()
	}
	c.afterDomainTask(d)
}

func (c *CPU) afterDomainTask(d *Domain) {
	if d.q.Len() == 0 {
		// Domain blocks.
		d.state = domBlocked
		c.dispatch()
		return
	}
	if c.isrQ.Len() > 0 {
		// Pending interrupt work preempts at the task boundary; the
		// domain keeps its turn (front of the boost queue, no switch
		// cost since c.cur is unchanged).
		d.state = domQueued
		c.boostQ.PushFront(d)
		c.dispatch()
		return
	}
	if c.boostQ.Len() > 0 && c.boostQ.Peek() != d {
		// Wake preemption (Xen credit-scheduler BOOST): a freshly woken
		// domain preempts the running one at the task boundary. The
		// preempted domain rejoins the run queue; FIFO order keeps the
		// round robin fair among CPU-hungry domains.
		d.state = domQueued
		c.runQ.Push(d)
		c.dispatch()
		return
	}
	if c.eng.Now() >= d.sliceEnd && (c.boostQ.Len() > 0 || c.runQ.Len() > 0) {
		// Slice expired and there is other runnable work: preempt.
		d.state = domQueued
		c.runQ.Push(d)
		c.dispatch()
		return
	}
	c.startDomainTask(d)
}

func (c *CPU) runTask(d *Domain, t Task) {
	c.pendISR = t
	name := t.Name
	if c.eng.Traced() {
		name = "cpu.isr:" + t.Name
	}
	c.eng.After(t.Dur, name, c.isrDoneFn)
}

func (c *CPU) isrDone() {
	t := c.pendISR
	c.pendISR.Fn = nil
	c.hypT += t.Dur
	if t.Fn != nil {
		t.Fn()
	}
	c.dispatch()
}

func (c *CPU) accountDomain(d *Domain, t Task) {
	switch t.Cat {
	case CatKernel:
		d.kernelT += t.Dur
	case CatUser:
		d.userT += t.Dur
	case CatHyp:
		d.hypT += t.Dur
	}
}

// StartWindow resets window accounting; call it after warmup.
func (c *CPU) StartWindow() {
	c.winStart = c.eng.Now()
	c.hypT, c.idleT = 0, 0
	if !c.busy {
		c.idleSince = c.eng.Now()
	}
	c.switches.StartWindow()
	for _, d := range c.domains {
		d.kernelT, d.userT, d.hypT = 0, 0, 0
		d.wakes.StartWindow()
	}
}

// EndWindow flushes an open idle span so Profile is exact at window end.
func (c *CPU) EndWindow() {
	if !c.busy {
		c.idleT += c.eng.Now() - c.idleSince
		c.idleSince = c.eng.Now()
	}
}

// Switches returns the windowed domain-switch counter.
func (c *CPU) Switches() *stats.Counter { return &c.switches }

// Profile returns the six-column execution profile over the window that
// ended at EndWindow.
func (c *CPU) Profile() stats.Profile {
	dur := c.eng.Now() - c.winStart
	if dur <= 0 {
		return stats.Profile{}
	}
	f := func(t sim.Time) float64 { return float64(t) / float64(dur) }
	p := stats.Profile{Hyp: f(c.hypT), Idle: f(c.idleT)}
	for _, d := range c.domains {
		p.Hyp += f(d.hypT)
		switch d.Kind {
		case KindDriver:
			p.DriverOS += f(d.kernelT)
			p.DriverUser += f(d.userT)
		case KindGuest:
			p.GuestOS += f(d.kernelT)
			p.GuestUser += f(d.userT)
		}
	}
	return p
}

// DomainTime returns the windowed (kernel, user, hyp) time of a domain.
func (d *Domain) DomainTime() (kernel, user, hyp sim.Time) {
	return d.kernelT, d.userT, d.hypT
}
