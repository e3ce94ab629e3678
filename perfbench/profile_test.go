package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestModuleOfFunc(t *testing.T) {
	for fn, want := range map[string]string{
		"cdna/internal/sim.(*Engine).Run": "sim",
		"cdna/internal/sim.(*FIFO[go.shape.struct { Cat cdna/internal/cpu.Cat; Dur cdna/internal/sim.Time }]).Push": "sim",
		"cdna/internal/core/corebench.Run":                      "core",
		"cdna/internal/stats.(*Distribution).Quantile.func1":    "stats",
		"slices.partitionOrdered[go.shape.float64]":             "",
		"runtime.mallocgc":                                      "",
		"main.execPrepared":                                     "",
		"github.com/x/cdna/internal/sim.Fake":                   "",
		"cdna/internal/guest.(*Stack).rx":                       "guest",
		"cdna/internal/campaign.Run.func1":                      "campaign",
		"cdna/internal/topo.(*Switch).forward":                  "topo",
		"cdna/internal/workload.(*endpoint).onArrival":          "workload",
		"cdna/internal/ether.(*Arena[go.shape.*uint8]).Release": "ether",
	} {
		if got := moduleOfFunc(fn); got != want {
			t.Errorf("moduleOfFunc(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestFoldStackChargesCaller: generic and standard-library frames count
// against the innermost simulator frame that called them.
func TestFoldStackChargesCaller(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{
			"runtime.memmove",
			"cdna/internal/sim.(*FIFO[go.shape.struct { Cat cdna/internal/cpu.Cat; Dur cdna/internal/sim.Time }]).Push",
			"cdna/internal/cpu.(*Domain).Exec",
			"cdna/internal/guest.(*Stack).send",
		}, "sim"},
		{[]string{
			"slices.partitionOrdered[go.shape.float64]",
			"slices.pdqsortOrdered[go.shape.float64]",
			"sort.Float64s",
			"cdna/internal/stats.(*Distribution).Quantile",
			"cdna/internal/bench.(*Machine).Collect",
		}, "stats"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "cdna/internal/ether.(*Arena).Get"}, "ether"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		{[]string{"main.tracedRunTo", "cdna/internal/campaign.Run.func1"}, "campaign"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := foldStack(c.stack); got != c.want {
			t.Errorf("foldStack(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ bytes.Buffer }

func (b *pb) varint(num int, v uint64) {
	b.uvarint(uint64(num)<<3 | 0)
	b.uvarint(v)
}

func (b *pb) bytesField(num int, p []byte) {
	b.uvarint(uint64(num)<<3 | 2)
	b.uvarint(uint64(len(p)))
	b.Write(p)
}

func (b *pb) packed(num int, vs ...uint64) {
	var inner pb
	for _, v := range vs {
		inner.uvarint(v)
	}
	b.bytesField(num, inner.Bytes())
}

func (b *pb) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

// TestFoldProfileDecodes builds a profile.proto by hand — packed and
// unpacked repeated fields, an inlined location, fixed-width fields to
// skip — and checks the folded shares.
func TestFoldProfileDecodes(t *testing.T) {
	strs := []string{"",
		"samples", "count", "cpu", "nanoseconds",
		"cdna/internal/sim.(*Engine).Run",
		"slices.partitionOrdered[go.shape.float64]",
		"cdna/internal/stats.(*Distribution).Quantile",
		"runtime.gcBgMarkWorker",
		"cdna/internal/sim.(*FIFO[go.shape.struct { C cdna/internal/cpu.Cat }]).Push",
	}
	var p pb
	for _, st := range []struct{ typ, unit uint64 }{{1, 2}, {3, 4}} {
		var vt pb
		vt.varint(1, st.typ)
		vt.varint(2, st.unit)
		p.bytesField(1, vt.Bytes())
	}
	// Samples: 3 in sim, 5 in stats via slices (packed ids), 2 in the
	// runtime, 6 in the generic FIFO inlined into Engine.Run.
	sample := func(packed bool, value uint64, locs ...uint64) {
		var s pb
		if packed {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, value, value*10_000_000)
		p.bytesField(2, s.Bytes())
	}
	sample(false, 3, 1)
	sample(true, 5, 2, 3, 1)
	sample(false, 2, 4)
	sample(true, 6, 5)
	location := func(id uint64, fns ...uint64) {
		var l pb
		l.varint(1, id)
		l.varint(3, 0x401000+id) // address
		for _, fn := range fns {
			var line pb
			line.varint(1, fn)
			line.varint(2, 42)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	location(1, 1)
	location(2, 2)
	location(3, 3)
	location(4, 4)
	location(5, 5, 1) // FIFO.Push inlined into Engine.Run: innermost first
	for id, name := range []uint64{5, 6, 7, 8, 9} {
		var f pb
		f.varint(1, uint64(id+1))
		f.varint(2, name)
		p.bytesField(5, f.Bytes())
	}
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	p.uvarint(9<<3 | 1) // time_nanos as fixed64, to be skipped
	p.Write(make([]byte, 8))
	p.varint(12, 10_000_000)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	shares, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 9.0 / 16, "stats": 5.0 / 16, "runtime": 2.0 / 16}
	var sum float64
	for m, s := range shares {
		sum += s
		if math.Abs(s-want[m]) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", m, s, want[m])
		}
	}
	if len(shares) != len(want) || math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
}

// TestFoldProfileReadsRuntimeProfile decodes a real profile written by
// runtime/pprof, so the reader tracks the toolchain's encoding.
func TestFoldProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		spinSink += spin(1 << 16)
	}
	pprof.StopCPUProfile()
	stacks, _, err := profileStacks(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range stacks {
		for _, fn := range st {
			found = found || strings.HasSuffix(fn, ".spin")
		}
	}
	if len(stacks) > 0 && !found {
		t.Errorf("%d samples, none in spin", len(stacks))
	}
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if len(shares) > 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

var spinSink uint64

//go:noinline
func spin(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}
