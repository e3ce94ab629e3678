package ether

import "cdna/internal/stats"

// Bridge is the forwarding database and port logic of the software
// Ethernet bridge that runs inside Xen's driver domain. It is pure
// forwarding logic: CPU cost for traversing it is charged by the driver
// domain code that invokes it, and the attached outputs are invoked
// synchronously.
//
// Standard learning-bridge semantics: the source MAC of every frame is
// learned on its ingress port; unicast frames to a known MAC go out that
// port only; unknown unicast and broadcast flood to every port except
// ingress.
type Bridge struct {
	outputs []Port
	fdb     map[uint64]int // keyed by MAC.key

	Forwarded stats.Counter
	Flooded   stats.Counter
	// FloodCopies counts flood recipients: a flood event delivering to
	// n ports adds n. FloodCopies - Flooded is therefore the number of
	// extra frame copies flooding created — the term that closes the
	// fabric-wide conservation ledger the topo property tests check.
	FloodCopies stats.Counter
	// Moves counts source MACs re-learned on a different port — a
	// station that migrated across the fabric (or whose first frame
	// arrived as part of a flood and was then seen elsewhere).
	Moves stats.Counter
}

// NewBridge creates an empty bridge.
func NewBridge() *Bridge {
	return &Bridge{fdb: make(map[uint64]int)}
}

// AddPort attaches an output and returns its port number.
func (b *Bridge) AddPort(out Port) int {
	b.outputs = append(b.outputs, out)
	return len(b.outputs) - 1
}

// NumPorts returns the number of attached ports.
func (b *Bridge) NumPorts() int { return len(b.outputs) }

// Lookup returns the learned port for a MAC, or -1.
func (b *Bridge) Lookup(m MAC) int {
	if p, ok := b.fdb[m.key()]; ok {
		return p
	}
	return -1
}

// Learn points the forwarding-database entry for m at port and returns
// the previously learned port, or -1 if the MAC was unknown. Bridge
// callers with richer port semantics (the multi-tier switch, whose
// uplink-facing entries legitimately flap between equal-cost ports) use
// it to apply their own station-move accounting; Input's own
// unconditional learning is unchanged and counts Moves itself.
func (b *Bridge) Learn(m MAC, port int) int {
	k := m.key()
	old, ok := b.fdb[k]
	if !ok || old != port {
		b.fdb[k] = port
	}
	if !ok {
		return -1
	}
	return old
}

// Unlearn removes every forwarding-database entry pointing at port and
// returns how many were dropped. A switch uses it when a port fails:
// stations behind the port must be re-learned (flooded to) wherever
// they reappear. The walk is in map order, which cannot show in any
// result: it only deletes and counts.
func (b *Bridge) Unlearn(port int) int {
	n := 0
	for k, p := range b.fdb {
		if p == port {
			delete(b.fdb, k)
			n++
		}
	}
	return n
}

// Input processes a frame arriving on ingress port `in`: learns the
// source and forwards or floods.
//
// Source learning is unconditional: every frame re-learns its source
// MAC on the ingress port, whether or not the forwarding database
// already has an entry and regardless of how the frame is about to be
// forwarded (known unicast, flood, or suppressed hairpin). A MAC that
// moves ports — including one whose first appearance was on a frame the
// bridge flooded — is therefore re-pointed by its very next frame, never
// pinned to a stale port. The regression tests in ether_test.go hold
// this invariant. Re-learning a source on the port it already has is a
// lookup only; the entry is written when it is new or has moved.
func (b *Bridge) Input(in int, f *Frame) {
	if !f.Src.IsBroadcast() {
		k := f.Src.key()
		if old, ok := b.fdb[k]; !ok || old != in {
			if ok {
				b.Moves.Inc()
			}
			b.fdb[k] = in
		}
	}
	if !f.Dst.IsBroadcast() {
		if out, ok := b.fdb[f.Dst.key()]; ok {
			if out != in {
				b.Forwarded.Inc()
				b.outputs[out].Receive(f)
			} else {
				// Hairpin suppressed: nobody consumes the frame.
				f.Release()
			}
			return
		}
	}
	b.Flooded.Inc()
	// Each recipient consumes one reference; the incoming reference
	// covers the first, so take one more per extra recipient before any
	// Receive can release the frame.
	n := 0
	for i := range b.outputs {
		if i != in {
			n++
		}
	}
	b.FloodCopies.Add(uint64(n))
	if n == 0 {
		f.Release()
		return
	}
	for i := 1; i < n; i++ {
		f.Retain()
	}
	for i, out := range b.outputs {
		if i != in {
			out.Receive(f)
		}
	}
}
