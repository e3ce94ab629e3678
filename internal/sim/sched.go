package sim

// The event queue sits behind a small scheduler seam so the engine can
// carry either implementation as a concrete type (no interface value in
// the hot path — `queueImpl` is a build-tag-selected type alias, see
// sched_select_*.go):
//
//   - hybridSched (default): a near/far split — a small binary-heap
//     run for the wheel clock's current window fronting the timing
//     wheel for everything farther out (sched_hybrid.go);
//   - wheelSched (-tags simwheel): the pure hierarchical timing wheel
//     with O(1) amortized schedule/cancel;
//   - heapSched (-tags simheap): the PR 2 binary min-heap, kept as the
//     reference implementation the differential test replays against.
//
// The interface itself is only ever used by tests (the randomized
// differential test drives both implementations through it) and as the
// compile-time contract both types must satisfy.
type scheduler interface {
	// init prepares the queue; gshift is log2 of the wheel granularity
	// in nanoseconds (ignored by the heap).
	init(gshift uint)
	// push inserts a queued event (at, seq, index maintained).
	push(ev *Event)
	// peek returns the minimum (at, seq) event without removing it, or
	// nil when empty.
	peek() *Event
	// pop removes ev, which must be the event peek just returned, and
	// commits simulated time to ev's timestamp.
	pop(ev *Event)
	// popAt removes and returns the minimum event if it fires exactly
	// at t, else nil. Used for same-timestamp batch dispatch: after a
	// pop at time t, all remaining events at t are reachable in O(1).
	popAt(t Time) *Event
	// remove deletes a queued event (cancellation).
	remove(ev *Event)
	// reschedule re-keys a queued event after its at/seq changed
	// (Timer re-arm).
	reschedule(ev *Event)
	// len returns the number of queued events.
	len() int
}

// Compile-time checks: both implementations satisfy the seam, so the
// build-tag alias can select either.
var (
	_ scheduler = (*wheelSched)(nil)
	_ scheduler = (*heapSched)(nil)
	_ scheduler = (*hybridSched)(nil)
)

func eventLess(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}
