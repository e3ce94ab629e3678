package sim

import "math/bits"

// hybridSched is a near/far event queue: a small binary min-heap (the
// "near run") holds every event whose tick falls in the wheel clock's
// current 64-tick window — exactly the events the timing wheel would
// file into its sorted level-0 lists — while the hierarchical wheel
// (sched_wheel.go) keeps everything farther out. The split pairs each
// structure with the access pattern it wins at:
//
//   - shallow schedule→fire traffic (a handful of events within a few
//     microseconds, the dominant pattern of a busy machine) stays in a
//     heap of a few dozen entries: O(log k) array sifts on hot cache
//     lines instead of the wheel's level-0 list walk;
//   - far timers (retransmit timeouts, coalescer delays, ticks) keep the
//     wheel's O(1) placement and never cost heap depth, preserving the
//     depth64/rto_churn wins that motivated the wheel.
//
// Ordering: near events live in the wheel-clock window [cur &^ 63,
// cur | 63]; the wheel holds only events in strictly later windows
// (level >= 1 slots and overflow — cascading into level 0 happens only
// inside pop, which immediately re-drains level 0 into the run). Ticks
// in different windows order the same way their timestamps do, so the
// run minimum is the global minimum whenever the run is non-empty, and
// exact (at, seq) order is preserved — the differential test proves the
// three queue implementations event-for-event identical.
//
// The wheel clock advances only on wheel pops, which happen only when
// the run is empty; a lagging clock is safe (placement distances are
// computed against a clock no later than the organic one) and keeps the
// wheel's own invariants intact without cascading on run pops.
//
// nearBase offsets run positions in Event.index so membership is
// disambiguated from wheel slot indices ([0, overflowIdx]) without
// another Event field.
const nearBase = overflowIdx + 1

type hybridSched struct {
	w   wheelSched
	run []*Event // binary min-heap on (at, seq); index = nearBase + pos
}

func (h *hybridSched) init(gshift uint) { h.w.init(gshift) }

func (h *hybridSched) len() int { return h.w.len() + len(h.run) }

// near reports whether tick t falls in the wheel clock's current
// level-0 window — the near-run membership rule.
func (h *hybridSched) near(t uint64) bool {
	return t>>wheelBits == h.w.cur>>wheelBits
}

func (h *hybridSched) push(ev *Event) {
	if h.near(h.w.tick(ev.at)) {
		h.runPush(ev)
		return
	}
	h.w.push(ev)
}

func (h *hybridSched) peek() *Event {
	if len(h.run) > 0 {
		return h.run[0]
	}
	return h.w.peek()
}

// pop removes ev — the event peek just returned. A wheel pop advances
// the wheel clock into ev's window, so whatever cascaded into level 0
// is promoted to the run immediately, restoring the invariant that the
// wheel holds only later-window events.
func (h *hybridSched) pop(ev *Event) {
	if ev.index >= nearBase {
		h.runPopMin()
		return
	}
	h.w.pop(ev)
	h.promote()
}

func (h *hybridSched) popAt(t Time) *Event {
	if len(h.run) > 0 {
		ev := h.run[0]
		if ev.at != t {
			return nil
		}
		h.runPopMin()
		return ev
	}
	// Engine batch dispatch never reaches this: after a pop at t the
	// run holds every remaining event in t's window. Interface-driven
	// callers (the differential test) may, so stay correct for them.
	ev := h.w.peek()
	if ev == nil || ev.at != t {
		return nil
	}
	h.w.pop(ev)
	h.promote()
	return ev
}

func (h *hybridSched) remove(ev *Event) {
	if ev.index >= nearBase {
		h.runRemoveAt(int(ev.index) - nearBase)
		ev.index = -1
		return
	}
	h.w.remove(ev)
}

// reschedule re-keys a queued event after its at/seq changed (Timer
// re-arm). The new key may move it across the near/far seam in either
// direction, so it is re-filed from scratch.
func (h *hybridSched) reschedule(ev *Event) {
	if ev.index >= nearBase {
		h.runRemoveAt(int(ev.index) - nearBase)
		ev.index = -1
	} else {
		h.w.remove(ev)
	}
	h.push(ev)
}

// promote drains the wheel's level-0 slots — events in the clock's
// current window — into the run. Each event is promoted at most once
// (it leaves the wheel for good), so the amortized cost per event is
// one heap push.
func (h *hybridSched) promote() {
	w := &h.w
	for w.occ[0] != 0 {
		s := bits.TrailingZeros64(w.occ[0])
		sent := &w.slots[0][s]
		for ev := sent.next; ev != sent; {
			next := ev.next
			ev.next, ev.prev = nil, nil
			w.count--
			h.runPush(ev)
			ev = next
		}
		sentinelInit(sent)
		w.occ[0] &^= 1 << uint(s)
	}
}

// --- near-run binary heap (heapSched with nearBase-offset indices) ---

func (h *hybridSched) runPush(ev *Event) {
	h.run = append(h.run, ev)
	h.runUp(len(h.run) - 1)
}

func (h *hybridSched) runPopMin() *Event {
	ev := h.run[0]
	last := len(h.run) - 1
	if last > 0 {
		h.run[0] = h.run[last]
		h.run[0].index = nearBase
	}
	h.run[last] = nil
	h.run = h.run[:last]
	if last > 1 {
		h.runDown(0)
	}
	ev.index = -1
	return ev
}

func (h *hybridSched) runRemoveAt(i int) {
	last := len(h.run) - 1
	if i != last {
		h.run[i] = h.run[last]
		h.run[i].index = int32(nearBase + i)
	}
	h.run[last] = nil
	h.run = h.run[:last]
	if i < last {
		if !h.runDown(i) {
			h.runUp(i)
		}
	}
}

func (h *hybridSched) runUp(i int) {
	ev := h.run[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h.run[parent]
		if !eventLess(ev, p) {
			break
		}
		h.run[i] = p
		p.index = int32(nearBase + i)
		i = parent
	}
	h.run[i] = ev
	ev.index = int32(nearBase + i)
}

// runDown reports whether the event moved.
func (h *hybridSched) runDown(i int) bool {
	ev := h.run[i]
	n := len(h.run)
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(h.run[r], h.run[l]) {
			m = r
		}
		if !eventLess(h.run[m], ev) {
			break
		}
		h.run[i] = h.run[m]
		h.run[i].index = int32(nearBase + i)
		i = m
	}
	h.run[i] = ev
	ev.index = int32(nearBase + i)
	return i > start
}
