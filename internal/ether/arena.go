package ether

// This file is the frame arena: a per-engine free list that recycles
// Frame values so the steady-state data path allocates nothing. Frames
// are reference-counted flyweights — the struct flows by pointer
// through every layer (driver slot tables, NIC job FIFOs, wire queues,
// bridge fan-out) and returns to its arena when the last holder drops
// it.
//
// Ownership rules (see DESIGN.md "Frame arena" for the long form):
//
//   - Arena.Get returns a frame with one reference, owned by the
//     caller. Handing the frame to a consuming sink — Pipe.Send,
//     Port.Receive, Bridge.Input, NetDevice.StartXmit, a stack rx
//     handler — transfers that reference.
//   - A holder that keeps the frame beyond such a call (a driver's
//     in-flight slot table while the NIC also puts the frame on the
//     wire) must Retain first; fan-out (bridge flood) Retains once per
//     extra recipient.
//   - Every drop path — link down, egress tail drop, qdisc overflow,
//     foreign-MAC filter, detach teardown — Releases instead of
//     silently discarding.
//   - Frames built as plain literals (tests) have no arena:
//     Retain/Release are no-ops and the GC owns them. Model behavior
//     is identical either way.
//
// The generation counter increments on every free. It makes
// use-after-release detectable — Retain/Release on a stale handle
// panic in tests via Handle — without widening the hot path.

// PayloadRef is implemented by payloads that are themselves pooled and
// reference-counted (transport segments). A frame owns one payload
// reference: it retains nothing extra on attach (the creator's
// reference transfers in) and releases the payload when the frame
// itself is freed.
type PayloadRef interface {
	RetainPayload()
	ReleasePayload()
}

// Arena is a frame free list. One arena serves one engine; it is not
// safe for concurrent use.
type Arena struct {
	free []*Frame

	// Gets/Puts count pooled traffic; News counts free-list misses
	// (frames newly allocated because the free list was empty). In
	// steady state News stops growing — the frame_arena benchmark and
	// the zero-alloc tests hold that.
	Gets, Puts, News uint64
}

// NewArena creates an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a frame initialized to the given header fields with one
// reference, owned by the caller. The payload reference (if the
// payload is pooled) transfers into the frame.
func (a *Arena) Get(src, dst MAC, size int, payload any) *Frame {
	a.Gets++
	var f *Frame
	if n := len(a.free); n > 0 {
		f = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		a.News++
		f = &Frame{arena: a}
	}
	f.Src, f.Dst, f.Size, f.Payload = src, dst, size, payload
	f.refs = 1
	return f
}

// put recycles a freed frame.
func (a *Arena) put(f *Frame) {
	a.Puts++
	a.free = append(a.free, f)
}

// FreeLen returns the current free-list depth (tests).
func (a *Arena) FreeLen() int { return len(a.free) }

// Retain adds a reference. No-op for frames without an arena.
func (f *Frame) Retain() {
	if f.arena == nil {
		return
	}
	if f.refs <= 0 {
		panic("ether: Retain of a released frame")
	}
	f.refs++
}

// Release drops one reference; the last one returns the frame to its
// arena (releasing the payload reference it owns) and bumps the
// generation. No-op for frames without an arena.
func (f *Frame) Release() {
	if f.arena == nil {
		return
	}
	if f.refs <= 0 {
		panic("ether: Release of a released frame")
	}
	f.refs--
	if f.refs > 0 {
		return
	}
	f.gen++
	if p, ok := f.Payload.(PayloadRef); ok {
		p.ReleasePayload()
	}
	f.Payload = nil
	f.arena.put(f)
}

// Pooled reports whether the frame came from an arena.
func (f *Frame) Pooled() bool { return f.arena != nil }

// Handle is a generation-checked weak reference to a pooled frame.
// Holders that may outlive the frame (diagnostics, tests) keep a
// Handle instead of a bare pointer; Frame() panics if the slot was
// recycled, turning silent use-after-release into a loud failure.
type Handle struct {
	f   *Frame
	gen uint32
}

// Handle returns a generation-checked reference to the frame.
func (f *Frame) Handle() Handle { return Handle{f: f, gen: f.gen} }

// Valid reports whether the referenced frame is still the same
// incarnation.
func (h Handle) Valid() bool { return h.f != nil && h.f.gen == h.gen }

// Frame returns the referenced frame, panicking if it was released
// and recycled since the handle was taken.
func (h Handle) Frame() *Frame {
	if !h.Valid() {
		panic("ether: stale frame handle (released and recycled)")
	}
	return h.f
}
