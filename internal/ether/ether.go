// Package ether models the Ethernet substrate: MAC addresses, frames,
// full-duplex Gigabit links with real framing overhead, and the learning
// software bridge that Xen's driver domain uses to multiplex guest
// traffic onto the physical NIC (paper §2.1).
package ether

import (
	"fmt"
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// String formats the address conventionally.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// key packs the six address bytes into the low 48 bits of a uint64,
// losslessly: the bridge's forwarding-database key, which Go maps hash
// on their fast 64-bit path instead of hashing a byte array.
func (m MAC) key() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IsBroadcast reports whether the address is broadcast or multicast.
func (m MAC) IsBroadcast() bool { return m[0]&1 == 1 }

// MakeMAC builds a locally administered unicast MAC from a group and
// index (group distinguishes NICs / guests / peers).
func MakeMAC(group, index int) MAC {
	return MAC{0x02, 0x00, byte(group >> 8), byte(group), byte(index >> 8), byte(index)}
}

// Frame header and physical-layer constants (bytes).
const (
	HeaderBytes   = 14 // dst + src + ethertype
	CRCBytes      = 4
	PreambleBytes = 8
	IFGBytes      = 12
	MinFrame      = 60 // without CRC
	MTU           = 1500
	// WireOverhead is added to every frame's on-the-wire slot.
	WireOverhead = CRCBytes + PreambleBytes + IFGBytes
)

// Frame is an Ethernet frame. Size is the frame length in bytes
// including the 14-byte header but excluding CRC/preamble/IFG; Payload
// carries the simulated upper-layer object (a transport segment).
//
// Frames on the hot data path come from a per-engine Arena and are
// reference-counted (see arena.go for the ownership rules). Frames
// built as plain literals work identically — their Retain/Release are
// no-ops and the garbage collector owns them.
type Frame struct {
	Dst, Src MAC
	Size     int
	Payload  any

	// Arena bookkeeping; all zero for unpooled (literal) frames.
	arena *Arena
	refs  int32
	gen   uint32
}

// WireBytes returns the number of byte slots the frame occupies on the
// medium, including CRC, preamble and inter-frame gap, with minimum-size
// padding applied.
func (f *Frame) WireBytes() int {
	size := f.Size
	if size < MinFrame {
		size = MinFrame
	}
	return size + WireOverhead
}

// GbpsToBytesPerNs converts a link rate in Gb/s to bytes per nanosecond.
func GbpsToBytesPerNs(gbps float64) float64 { return gbps / 8 }

// MaxPayloadMbps returns the maximum payload throughput (Mb/s) of a link
// at rate gbps when carrying frames with payload+headers totalling
// frameSize and payloadBytes of useful payload each. This is the
// saturation ceiling the paper's throughput numbers run into
// (941.5 Mb/s per Gigabit link for 1448-byte TCP payloads).
func MaxPayloadMbps(gbps float64, frameSize, payloadBytes int) float64 {
	slot := frameSize + WireOverhead
	framesPerSec := gbps * 1e9 / 8 / float64(slot)
	return framesPerSec * float64(payloadBytes) * 8 / 1e6
}
