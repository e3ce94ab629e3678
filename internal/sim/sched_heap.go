package sim

// heapSched is the PR 2 event queue: a hand-rolled binary min-heap on
// (at, seq) that tracks each event's position for O(log n) cancellation.
// It is no longer the default — the timing wheel (sched_wheel.go) is —
// but stays as the build-selectable reference implementation
// (-tags simheap) and as the oracle the randomized differential test
// replays against.
type heapSched struct {
	pq []*Event
}

func (h *heapSched) init(gshift uint) {}

func (h *heapSched) len() int { return len(h.pq) }

func (h *heapSched) push(ev *Event) {
	ev.index = int32(len(h.pq))
	h.pq = append(h.pq, ev)
	h.siftUp(len(h.pq) - 1)
}

func (h *heapSched) peek() *Event {
	if len(h.pq) == 0 {
		return nil
	}
	return h.pq[0]
}

// pop removes ev, which is always h.pq[0] (the event peek returned).
func (h *heapSched) pop(ev *Event) {
	h.popMin()
}

func (h *heapSched) popAt(t Time) *Event {
	if len(h.pq) == 0 || h.pq[0].at != t {
		return nil
	}
	return h.popMin()
}

func (h *heapSched) popMin() *Event {
	ev := h.pq[0]
	last := len(h.pq) - 1
	if last > 0 {
		h.pq[0] = h.pq[last]
		h.pq[0].index = 0
	}
	h.pq[last] = nil
	h.pq = h.pq[:last]
	if last > 1 {
		h.siftDown(0)
	}
	ev.index = -1
	return ev
}

func (h *heapSched) remove(ev *Event) {
	i := int(ev.index)
	last := len(h.pq) - 1
	if i != last {
		h.pq[i] = h.pq[last]
		h.pq[i].index = int32(i)
	}
	h.pq[last] = nil
	h.pq = h.pq[:last]
	if i < last {
		h.fix(i)
	}
	ev.index = -1
}

// reschedule restores heap order after the event at position ev.index
// changed key (Timer re-arm re-keys the event where it sits).
func (h *heapSched) reschedule(ev *Event) {
	h.fix(int(ev.index))
}

func (h *heapSched) fix(i int) {
	if !h.siftDown(i) {
		h.siftUp(i)
	}
}

func (h *heapSched) siftUp(i int) {
	ev := h.pq[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := h.pq[parent]
		if !eventLess(ev, p) {
			break
		}
		h.pq[i] = p
		p.index = int32(i)
		i = parent
	}
	h.pq[i] = ev
	ev.index = int32(i)
}

// siftDown reports whether the event moved.
func (h *heapSched) siftDown(i int) bool {
	ev := h.pq[i]
	n := len(h.pq)
	start := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && eventLess(h.pq[r], h.pq[l]) {
			m = r
		}
		if !eventLess(h.pq[m], ev) {
			break
		}
		h.pq[i] = h.pq[m]
		h.pq[i].index = int32(i)
		i = m
	}
	h.pq[i] = ev
	ev.index = int32(i)
	return i > start
}
