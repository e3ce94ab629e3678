package sim

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"testing"
)

// --- The ordering oracle: every operation on the timing wheel is
// mirrored on a plain slice kept sorted by (at, seq), and every peek,
// pop and popAt must agree event for event. The oracle shares nothing
// with the wheel (no levels, slots, cascades or overflow list), so
// agreement is an independent check of the engine's (time, sequence)
// order. ---

// oracle is the test-only reference queue: a slice sorted by (at, seq),
// with binary-search insert and linear delete.
type oracle []*Event

func cmpEvent(a, b *Event) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

func (o *oracle) push(ev *Event) {
	i, _ := slices.BinarySearchFunc(*o, ev, cmpEvent)
	*o = slices.Insert(*o, i, ev)
}

func (o *oracle) remove(ev *Event) {
	i := slices.Index(*o, ev)
	*o = slices.Delete(*o, i, i+1)
}

func (o oracle) peek() *Event {
	if len(o) == 0 {
		return nil
	}
	return o[0]
}

// mirrored drives a wheelSched and the oracle through the same
// operations. Each logical event has one copy per queue, wev[id] and
// oev[id]; live lists the ids still queued.
type mirrored struct {
	t        *testing.T
	w        wheelSched
	o        oracle
	seq      uint64
	now      Time
	wev, oev []*Event
	live     []int
}

func newMirrored(t *testing.T, gshift uint) *mirrored {
	m := &mirrored{t: t}
	m.w.init(gshift)
	return m
}

// push schedules a new event at at and returns its id.
func (m *mirrored) push(at Time) int {
	id := len(m.wev)
	m.seq++
	name := strconv.Itoa(id)
	w := &Event{at: at, seq: m.seq, name: name, index: -1}
	o := &Event{at: at, seq: m.seq, name: name}
	m.w.push(w)
	m.o.push(o)
	m.wev, m.oev = append(m.wev, w), append(m.oev, o)
	m.live = append(m.live, id)
	return id
}

// same fails the test unless the wheel's w and the oracle's o are the
// same logical event (or both nil).
func (m *mirrored) same(op string, w, o *Event) {
	m.t.Helper()
	switch {
	case (w == nil) != (o == nil):
		m.t.Fatalf("%s: wheel %v vs oracle %v (wheel len %d, oracle len %d)", op, w, o, m.w.len(), len(m.o))
	case w != nil && (w.at != o.at || w.seq != o.seq || w.name != o.name):
		m.t.Fatalf("%s: wheel (%d,%d,%s) != oracle (%d,%d,%s)", op, w.at, w.seq, w.name, o.at, o.seq, o.name)
	}
	if m.w.len() != len(m.o) {
		m.t.Fatalf("%s: wheel len %d, oracle len %d", op, m.w.len(), len(m.o))
	}
}

func (m *mirrored) dead(ev *Event) {
	id, _ := strconv.Atoi(ev.name)
	m.live = slices.DeleteFunc(m.live, func(v int) bool { return v == id })
}

// pop fires the minimum in both queues and returns its timestamp; false
// when both are empty.
func (m *mirrored) pop(op string) (Time, bool) {
	m.t.Helper()
	w, o := m.w.peek(), m.o.peek()
	m.same(op, w, o)
	if w == nil {
		return 0, false
	}
	m.w.pop(w)
	m.o.remove(o)
	m.now = w.at
	m.dead(w)
	return w.at, true
}

// drainAt pops every remaining event at the current instant through
// popAt, the engine's same-timestamp batch path.
func (m *mirrored) drainAt() {
	m.t.Helper()
	for {
		w := m.w.popAt(m.now)
		var o *Event
		if p := m.o.peek(); p != nil && p.at == m.now {
			o = p
			m.o.remove(o)
		}
		m.same(fmt.Sprintf("popAt(%d)", m.now), w, o)
		if w == nil {
			return
		}
		m.dead(w)
	}
}

func (m *mirrored) cancel(id int) {
	m.w.remove(m.wev[id])
	m.o.remove(m.oev[id])
	m.live = slices.DeleteFunc(m.live, func(v int) bool { return v == id })
}

// rearm re-keys a queued event to at with a fresh sequence number, the
// way Timer.Arm does.
func (m *mirrored) rearm(id int, at Time) {
	m.seq++
	w, o := m.wev[id], m.oev[id]
	w.at, w.seq = at, m.seq
	m.w.reschedule(w)
	m.o.remove(o)
	o.at, o.seq = at, m.seq
	m.o.push(o)
}

// drain fires everything left and returns the firing times.
func (m *mirrored) drain() []Time {
	m.t.Helper()
	var got []Time
	for {
		at, ok := m.pop("drain")
		if !ok {
			return got
		}
		got = append(got, at)
	}
}

var testShifts = []uint{0, 5, 12}

// TestSchedulerDifferential replays a randomized schedule / fire /
// batch-drain / cancel / re-arm sequence on the wheel and the oracle.
func TestSchedulerDifferential(t *testing.T) {
	for _, gshift := range testShifts {
		t.Run(fmt.Sprintf("gshift=%d", gshift), func(t *testing.T) {
			testSchedulerDifferential(t, gshift)
		})
	}
}

func testSchedulerDifferential(t *testing.T, gshift uint) {
	rng := NewRNG(20260729 + uint64(gshift))
	m := newMirrored(t, gshift)

	// Delay mix spanning every wheel level plus the overflow list
	// (64^6 ticks at gshift 0 is ~68.7 simulated seconds).
	delay := func() Time {
		switch rng.Intn(10) {
		case 0:
			return 0 // same timestamp as now
		case 1, 2, 3:
			return Time(rng.Intn(100)) // level 0 neighbourhood
		case 4, 5:
			return Time(rng.Intn(100_000)) // levels 1-2
		case 6, 7:
			return Time(rng.Intn(50_000_000)) // levels 3-4
		case 8:
			return Time(rng.Intn(2_000_000_000)) // level 5 / seconds
		default:
			return Time(100_000_000_000) + Time(rng.Intn(1_000_000_000)) // overflow
		}
	}

	const ops = 20000
	for i := 0; i < ops; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			m.push(m.now + delay())
		case 4, 5:
			m.pop("pop")
		case 6:
			if _, ok := m.pop("pop"); ok {
				m.drainAt()
			}
		case 7:
			if len(m.live) > 0 {
				m.cancel(m.live[rng.Intn(len(m.live))])
			}
		case 8:
			if len(m.live) > 0 {
				m.rearm(m.live[rng.Intn(len(m.live))], m.now+delay())
			}
		case 9:
			m.same("probe", m.w.peek(), m.o.peek())
		}
	}
	m.drain()
	if m.w.len() != 0 {
		t.Fatalf("wheel not empty after drain: %d", m.w.len())
	}
}

// TestSchedulerOracleEdgeCases drives the wheel's structural edges at
// each granularity and checks them against the oracle: level rollovers,
// events beyond the wheel horizon, a cancel after a cascade, and a
// re-arm into the slot being drained.
func TestSchedulerOracleEdgeCases(t *testing.T) {
	for _, gshift := range testShifts {
		tick := Time(1) << gshift
		t.Run(fmt.Sprintf("cascade-boundary/gshift=%d", gshift), func(t *testing.T) {
			m := newMirrored(t, gshift)
			for b := Time(wheelSlots); b <= wheelSlots*wheelSlots*wheelSlots; b *= wheelSlots {
				for _, at := range []Time{b - 1, b, b + 1} {
					m.push(at * tick)
					m.push(at*tick + tick - 1)
				}
			}
			if got := m.drain(); len(got) != 18 {
				t.Fatalf("fired %d, want 18", len(got))
			}
		})
		t.Run(fmt.Sprintf("far-future-overflow/gshift=%d", gshift), func(t *testing.T) {
			m := newMirrored(t, gshift)
			horizon := tick << (wheelBits * wheelLevels)
			far := map[Time]bool{}
			for _, at := range []Time{Second, horizon + Second, 2*horizon + Second, 2*horizon + Second + 10*tick, 3 * horizon} {
				m.push(at)
				far[at] = true
			}
			for i := 0; i < 50; i++ { // near traffic while the far events wait
				m.push(m.now + 10*Millisecond)
				m.pop("near")
			}
			// Each far event schedules a follower 20 ticks on: it must
			// not overtake a far event still waiting in the same epoch.
			fired := 0
			for {
				at, ok := m.pop("far")
				if !ok {
					break
				}
				fired++
				if far[at] {
					m.push(at + 20*tick)
				}
			}
			if fired != 10 {
				t.Fatalf("fired %d, want 10", fired)
			}
		})
		t.Run(fmt.Sprintf("cancel-after-cascade/gshift=%d", gshift), func(t *testing.T) {
			// Ticks 70, 100 and 101 share level-1 slot 1; popping 70
			// cascades the other two down to level 0.
			m := newMirrored(t, gshift)
			m.push(70 * tick)
			b := m.push(100 * tick)
			m.push(101 * tick)
			m.pop("first")
			if m.wev[b].index < 0 || m.wev[b].index >= wheelSlots {
				t.Fatalf("event at tick 100 not cascaded to level 0: index %d", m.wev[b].index)
			}
			m.cancel(b)
			if got := m.drain(); len(got) != 1 || got[0] != 101*tick {
				t.Fatalf("fired %v, want [%d]", got, 101*tick)
			}
		})
		t.Run(fmt.Sprintf("rearm-current-slot/gshift=%d", gshift), func(t *testing.T) {
			m := newMirrored(t, gshift)
			m.push(50 * tick)
			tm := m.push(50 * tick)
			m.push(50 * tick)
			m.push(50*tick + 1)
			m.pop("first")
			m.rearm(tm, m.now) // mid-drain: behind the queued same-instant events
			m.drainAt()
			if got := m.drain(); len(got) != 1 {
				t.Fatalf("fired %v after the batch, want one event", got)
			}
		})
	}
}

// --- Wheel edge cases through the public Engine API, with their
// expected firing orders written out by hand. ---

// TestWheelCascadeBoundary schedules events exactly at level rollovers
// (64^l ticks) and one tick either side: the points where an event's
// wheel level and slot digits change, and where a mis-derived level
// would file it into a stale slot.
func TestWheelCascadeBoundary(t *testing.T) {
	boundaries := []Time{
		wheelSlots,                           // level 0→1 rollover
		wheelSlots * wheelSlots,              // level 1→2
		wheelSlots * wheelSlots * wheelSlots, // level 2→3
	}
	e := New()
	var want []Time
	for _, b := range boundaries {
		for _, at := range []Time{b - 1, b, b + 1} {
			want = append(want, at)
		}
	}
	var got []Time
	for _, at := range want {
		e.At(at, "edge", func() { got = append(got, e.Now()) })
	}
	e.Run(boundaries[len(boundaries)-1] * 2)
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i, at := range want {
		if got[i] != at {
			t.Fatalf("firing %d at %v, want %v (all: %v)", i, got[i], at, got)
		}
	}
}

// TestWheelFarFutureOverflow exercises the overflow list: events beyond
// the wheel horizon (64^6 ns ≈ 68.7 s at 1 ns granularity) in two
// different top-level epochs, interleaved with near events. The far
// events must re-file into the wheel when the clock crosses into their
// epoch and still fire in exact order.
func TestWheelFarFutureOverflow(t *testing.T) {
	e := New()
	const horizon = Time(1) << (wheelBits * wheelLevels) // in ns at gshift 0
	ats := []Time{
		Second,             // in-wheel
		horizon + Second,   // first overflow epoch
		2*horizon + Second, // second overflow epoch
		2*horizon + Second + 1,
	}
	var got []Time
	for _, at := range ats {
		e.At(at, "far", func() { got = append(got, e.Now()) })
	}
	// A near chain keeps the wheel busy while the far events wait.
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(10*Millisecond, "tick", tick)
		}
	}
	e.After(10*Millisecond, "tick", tick)
	e.Run(3 * horizon)
	if len(got) != len(ats) {
		t.Fatalf("fired %d far events, want %d", len(got), len(ats))
	}
	for i, at := range ats {
		if got[i] != at {
			t.Fatalf("far firing %d at %v, want %v", i, got[i], at)
		}
	}
	if count != 100 {
		t.Fatalf("near chain fired %d, want 100", count)
	}
}

// TestWheelCancelAfterCascade cancels an event that has been cascaded
// out of its original higher-level slot but has not fired: the Handle's
// recorded position must track the event through relocation.
func TestWheelCancelAfterCascade(t *testing.T) {
	e := New()
	var got []Time
	rec := func() { got = append(got, e.Now()) }
	// Ticks 70, 100, 101 share level-1 slot 1 (all have digit 1 at
	// level 1 from time 0). Firing 70 advances the clock into the slot
	// and cascades 100 and 101 down to level 0.
	e.At(70, "a", rec)
	h := e.At(100, "b", func() { t.Fatal("cancelled event fired") })
	e.At(101, "c", rec)
	e.Run(71) // fire 70 only; 100 and 101 have cascaded
	if !h.Scheduled() {
		t.Fatal("cascaded event lost its scheduled state")
	}
	h.Cancel()
	if h.Scheduled() || e.Pending() != 1 {
		t.Fatalf("after cancel: Scheduled=%v Pending=%d", h.Scheduled(), e.Pending())
	}
	e.Run(Second)
	if len(got) != 2 || got[0] != 70 || got[1] != 101 {
		t.Fatalf("fired %v, want [70 101]", got)
	}
}

// TestWheelTimerRearmCurrentSlot re-arms a timer to the current
// timestamp from inside a callback: the re-arm lands in the slot the
// engine is draining right now, and must fire in this batch, after the
// events already queued at the same instant (fresh sequence number).
func TestWheelTimerRearmCurrentSlot(t *testing.T) {
	e := New()
	var order []string
	var tm *Timer
	rearmed := false
	tm = e.NewTimer("tm", func() {
		order = append(order, "timer")
		if !rearmed {
			rearmed = true
			tm.Arm(e.Now()) // same timestamp, same slot, mid-drain
		}
	})
	e.At(50, "first", func() { order = append(order, "first") })
	tm.Arm(50)
	e.At(50, "after-timer", func() { order = append(order, "after") })
	e.Run(100)
	want := []string{"first", "timer", "after", "timer"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 100 || e.Pending() != 0 {
		t.Fatalf("now=%v pending=%d", e.Now(), e.Pending())
	}
}

// TestWheelCoarseGranularityOrder verifies that a coarse wheel
// granularity (many distinct timestamps per slot) cannot perturb
// ordering: same-slot events with different timestamps fire at their
// own times in exact (time, sequence) order.
func TestWheelCoarseGranularityOrder(t *testing.T) {
	e := NewWithResolution(4096) // gshift 12: 4096 ns per level-0 slot
	rng := NewRNG(99)
	var got []Time
	for i := 0; i < 500; i++ {
		e.At(Time(rng.Intn(3_000_000)), "ev", func() { got = append(got, e.Now()) })
	}
	e.Run(4 * Millisecond)
	if len(got) != 500 {
		t.Fatalf("fired %d, want 500", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
}

// TestEngineSameTimestampBatchWithInsertions: callbacks scheduling new
// events at the executing timestamp take part in the same-timestamp
// batch drain, in sequence order, including across Step/Run styles.
func TestEngineSameTimestampBatchWithInsertions(t *testing.T) {
	e := New()
	var order []int
	e.At(10, "a", func() {
		order = append(order, 1)
		e.At(10, "c", func() { order = append(order, 3) })
	})
	e.At(10, "b", func() { order = append(order, 2) })
	e.At(20, "d", func() { order = append(order, 4) })
	e.Run(100)
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
