package topo

import (
	"encoding/json"
	"testing"

	"cdna/internal/ether"
)

// FabricKind must survive a JSON round-trip (campaign specs and result
// files key on the textual form) and reject names it never wrote.
func TestFabricKindTextRoundTrip(t *testing.T) {
	for _, k := range []FabricKind{KindToR, KindLeafSpine, KindFatTree} {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var got FabricKind
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if got != k {
			t.Fatalf("kind %v round-tripped to %v", k, got)
		}
	}
	var k FabricKind
	if err := k.UnmarshalText([]byte("mesh")); err == nil {
		t.Fatal("unknown kind name accepted")
	}
	if s := FabricKind(9).String(); s != "FabricKind(9)" {
		t.Fatalf("out-of-range kind prints %q", s)
	}
}

// The fabric's introspection surface: the parts the bench layer and the
// fault injector navigate by (port roster, keyed-ID watermark, member
// uplink counts, leaf-tier MAC lookup, move/depth gauges).
func TestFabricAccessors(t *testing.T) {
	spec := FabricSpec{Kind: KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	p := DefaultParams()
	r := newFabRig(t, 4, 1, p, spec)
	fb := r.fb

	if got := fb.Params(); got != p {
		t.Fatalf("Params() = %+v, want %+v", got, p)
	}
	if fb.NumPorts() != 4 {
		t.Fatalf("NumPorts() = %d, want 4", fb.NumPorts())
	}
	// 2 leaves x 2 spines = 4 duplex trunks = 8 keyed simplex pipes,
	// claimed right above the 8 access-link IDs the rig handed out.
	if fb.NumTrunks() != 8 {
		t.Fatalf("NumTrunks() = %d, want 8", fb.NumTrunks())
	}
	if got := fb.NextKey(); got != 8+8 {
		t.Fatalf("NextKey() = %d, want 16", got)
	}
	if up := fb.SwitchAt(0).NumUplinks(); up != 2 {
		t.Fatalf("leaf has %d uplinks, want 2", up)
	}
	if up := fb.SwitchAt(2).NumUplinks(); up != 0 {
		t.Fatalf("spine has %d uplinks, want 0", up)
	}
	if si, pi := fb.Lookup(ether.MakeMAC(9, 99)); si != -1 || pi != -1 {
		t.Fatalf("unknown MAC looked up to (%d,%d)", si, pi)
	}

	r.learnAll()
	// Every leaf has learned host 3's MAC somewhere (leaf 1 on the
	// access port, leaf 0 on an uplink); Lookup reports the first.
	if si, pi := fb.Lookup(r.macs[3]); si < 0 || pi < 0 {
		t.Fatalf("learned MAC looked up to (%d,%d)", si, pi)
	}
	for i := 0; i < fb.NumPorts(); i++ {
		if fb.Port(i) == nil {
			t.Fatalf("Port(%d) = nil", i)
		}
	}

	// A station dragged to the other port of the same leaf is a move;
	// the windowed gauge must see it through the fabric roll-up.
	r.ups[1].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[2], Size: 300})
	r.drain()
	if fb.MovesWindow() == 0 {
		t.Fatal("cross-port re-learn not counted as a station move")
	}
	if fb.MaxDepth() < 1 {
		t.Fatalf("MaxDepth() = %d after traffic, want >= 1", fb.MaxDepth())
	}
}

// A flood arriving at a spine whose only port is the ingress trunk has
// no recipients: the copy must be released, not leaked or re-ascended.
// (1 leaf, 1 spine: the broadcast still reaches the other host once.)
func TestFabricFloodNoRecipients(t *testing.T) {
	spec := FabricSpec{Kind: KindLeafSpine, HostsPerLeaf: 2, Spines: 1}
	r := newFabRig(t, 2, 1, DefaultParams(), spec)
	r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: ether.Broadcast, Size: 60})
	r.drain()
	if got := len(r.log[1]); got != 1 {
		t.Fatalf("host 1 received %d broadcast copies, want 1", got)
	}
	if got := len(r.log[0]); got != 0 {
		t.Fatalf("broadcast echoed %d copies to its sender", got)
	}
}

// A frame addressed to a MAC learned on its own ingress port is a
// hairpin: a multi-tier leaf must suppress it silently (no delivery, no
// drop, no stray) exactly like the single-tier bridge does.
func TestFabricHairpinSuppressed(t *testing.T) {
	spec := FabricSpec{Kind: KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	r := newFabRig(t, 4, 1, DefaultParams(), spec)
	r.learnAll()
	r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[0], Size: 300})
	r.drain()
	for i, l := range r.log {
		if len(l) != 0 {
			t.Fatalf("hairpin frame delivered %d copies to host %d", len(l), i)
		}
	}
	if d := r.fb.DropsWindow(); d != 0 {
		t.Fatalf("hairpin counted as %d drops", d)
	}
	if s := r.fb.StraysWindow(); s != 0 {
		t.Fatalf("hairpin counted as %d strays", s)
	}
}

// With every uplink of a leaf failed, ECMP falls back to the full trunk
// set so the egress drop is accounted on a real port — cross-leaf
// traffic dies loudly instead of crashing the hash on an empty set.
func TestFabricECMPAllUplinksDown(t *testing.T) {
	spec := FabricSpec{Kind: KindLeafSpine, HostsPerLeaf: 2, Spines: 2}
	r := newFabRig(t, 4, 1, DefaultParams(), spec)
	r.learnAll()
	// Trunks are wired before host access links, so leaf 0's uplink
	// ports are its first Spines port slots.
	leaf := r.fb.SwitchAt(0)
	leaf.FailPort(0)
	leaf.FailPort(1)
	for i := 0; i < 5; i++ {
		r.ups[0].Send(&ether.Frame{Src: r.macs[0], Dst: r.macs[2], Size: 300, Payload: i})
	}
	r.drain()
	if got := len(r.log[2]); got != 0 {
		t.Fatalf("cross-leaf traffic delivered %d frames over dead uplinks", got)
	}
	if r.fb.DropsWindow() == 0 {
		t.Fatal("dead-uplink traffic not accounted as drops")
	}
}
