package sim

// DoubleBuf is the batched layer-crossing primitive: a producer on one
// side of a layer boundary appends completions as they happen, and the
// consumer's single scheduled event (an interrupt task, a virq
// handler) drains the whole burst at once with Drain, which swaps the
// two backing buffers. Neither side allocates in steady state — the
// spare buffer from the previous drain becomes the next append target
// — and the drained slice stays valid until the drain after next, which
// is exactly the lifetime an interrupt handler that consumes the burst
// synchronously needs.
//
// This generalizes the rxDone/rxSpare pattern the RiceNIC model grew
// ad hoc: any producer/consumer pair separated by one scheduled event
// (NIC rx completions → driver interrupt, device completion lists →
// virq decode) gets the same zero-allocation burst crossing from one
// type.
//
// DoubleBuf is not a FIFO: it has no per-element pop, and the producer
// must never append while the consumer still walks a previously
// drained slice's second-to-last incarnation. The event-driven
// alternation (append during event N, drain and consume at event N+1)
// satisfies that by construction.
type DoubleBuf[T any] struct {
	cur, spare []T
}

// Append adds one element to the current burst.
func (b *DoubleBuf[T]) Append(v T) { b.cur = append(b.cur, v) }

// Len returns the current burst's length.
func (b *DoubleBuf[T]) Len() int { return len(b.cur) }

// At returns the i-th element of the current (undrained) burst, for
// teardown paths that release what was never drained.
func (b *DoubleBuf[T]) At(i int) T { return b.cur[i] }

// Drain returns the accumulated burst and resets the buffer for the
// next one, swapping backing arrays so neither side allocates. The
// returned slice is valid until the drain after next; callers consume
// it before returning to the event loop. The drained elements are not
// zeroed until the swapped buffer is appended over — holders of
// pointer-typed elements release their references as they consume.
func (b *DoubleBuf[T]) Drain() []T {
	out := b.cur
	b.cur, b.spare = b.spare[:0], out
	return out
}

// Reset discards the current burst without handing it to a consumer
// (teardown paths). The caller walks the burst first if its elements
// hold references that must be dropped.
func (b *DoubleBuf[T]) Reset() {
	clear(b.cur)
	b.cur = b.cur[:0]
}
