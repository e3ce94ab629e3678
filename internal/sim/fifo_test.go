package sim

import "testing"

func TestFIFOOrder(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 100; i++ {
		q.Push(i)
	}
	if q.Len() != 100 {
		t.Fatalf("Len = %d", q.Len())
	}
	for i := 0; i < 100; i++ {
		if v := q.Pop(); v != i {
			t.Fatalf("Pop = %d, want %d", v, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

func TestFIFOWrapsAroundRing(t *testing.T) {
	var q FIFO[int]
	// Interleave pushes and pops so head walks around the ring many
	// times at a fixed small depth.
	for i := 0; i < 1000; i++ {
		q.Push(i)
		q.Push(i + 1000000)
		if q.Pop() != i {
			t.Fatalf("wrap order broken at %d", i)
		}
		if q.Pop() != i+1000000 {
			t.Fatalf("wrap order broken at %d", i)
		}
	}
	if len(q.buf) > 8 {
		t.Fatalf("ring grew to %d for depth-2 traffic", len(q.buf))
	}
}

// TestFIFOInterleavedAtCapacityBoundary drives push/pop interleavings
// exactly at the ring's power-of-two capacity boundaries: the queue
// sits at size == len(buf) with the head at every possible ring offset,
// so each grow copies a fully wrapped ring, and each post-grow
// interleave crosses the old boundary. This is the access pattern a
// churn workload's per-flow queues produce at their working depth.
func TestFIFOInterleavedAtCapacityBoundary(t *testing.T) {
	for offset := 0; offset < 8; offset++ {
		var q FIFO[int]
		next, expect := 0, 0
		push := func() { q.Push(next); next++ }
		pop := func() {
			if got := q.Pop(); got != expect {
				t.Fatalf("offset %d: popped %d, want %d", offset, got, expect)
			}
			expect++
		}
		// Walk the head to the chosen ring offset at depth 1.
		for i := 0; i < offset; i++ {
			push()
			pop()
		}
		// Fill to exactly the initial capacity (8) — the ring is full
		// and wrapped whenever offset > 0.
		for q.Len() < 8 {
			push()
		}
		if len(q.buf) != 8 {
			t.Fatalf("offset %d: capacity %d, want 8", offset, len(q.buf))
		}
		// Interleave at the boundary: each push forces a grow of a full
		// wrapped ring exactly once, then keep the queue riding the new
		// capacity edge.
		for i := 0; i < 3; i++ {
			push() // grows on i==0
			pop()
			push()
		}
		if len(q.buf) != 16 {
			t.Fatalf("offset %d: capacity after boundary crossing %d, want 16", offset, len(q.buf))
		}
		// Drain completely; order must hold across the wrapped copy.
		for q.Len() > 0 {
			pop()
		}
		if expect != next {
			t.Fatalf("offset %d: drained %d items, pushed %d", offset, expect, next)
		}
		// The emptied ring must still work at the new boundary.
		for i := 0; i < 16; i++ {
			push()
		}
		for q.Len() > 0 {
			pop()
		}
	}
}

func TestFIFOSteadyStateZeroAllocs(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	q.Push(v)
	q.Pop()
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(v)
		q.Push(v)
		q.Pop()
		q.Pop()
	})
	if allocs != 0 {
		t.Fatalf("steady-state FIFO allocates %.1f/op, want 0", allocs)
	}
}

func TestFIFOPeekAndClear(t *testing.T) {
	var q FIFO[string]
	q.Push("a")
	q.Push("b")
	if q.Peek() != "a" || q.Len() != 2 {
		t.Fatalf("Peek = %q Len = %d", q.Peek(), q.Len())
	}
	q.Clear()
	if q.Len() != 0 {
		t.Fatalf("Len after Clear = %d", q.Len())
	}
	q.Push("c")
	if q.Pop() != "c" {
		t.Fatal("FIFO broken after Clear")
	}
}

func TestFIFOPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of empty FIFO must panic")
		}
	}()
	var q FIFO[int]
	q.Pop()
}

func TestFIFOGrowPreservesOrder(t *testing.T) {
	var q FIFO[int]
	// Offset head, then force several growths mid-stream.
	for i := 0; i < 5; i++ {
		q.Push(-1)
	}
	for i := 0; i < 3; i++ {
		q.Pop()
	}
	for i := 0; i < 500; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	for i := 0; i < 500; i++ {
		if v := q.Pop(); v != i {
			t.Fatalf("Pop = %d, want %d", v, i)
		}
	}
}

// TestFIFOPushFrontWrap: PushFront prepends at the head, including
// across the ring's wrap point, and pops keep queue order.
func TestFIFOPushFrontWrap(t *testing.T) {
	var q FIFO[int]
	for i := 1; i <= 3; i++ {
		q.Push(i)
	}
	q.PushFront(0)
	if q.Len() != 4 || q.Peek() != 0 {
		t.Fatalf("len=%d peek=%d", q.Len(), q.Peek())
	}
	// Wrap the ring: pop two, push two, then prepend past slot 0.
	q.Pop()
	q.Pop()
	q.Push(4)
	q.Push(5)
	q.PushFront(1)
	for want := 1; want <= 5; want++ {
		if v := q.Pop(); v != want {
			t.Fatalf("Pop = %d, want %d", v, want)
		}
	}
	// PushFront on a full ring grows it.
	var g FIFO[int]
	for i := 1; i <= 8; i++ {
		g.Push(i)
	}
	g.PushFront(0)
	for want := 0; want <= 8; want++ {
		if v := g.Pop(); v != want {
			t.Fatalf("grown Pop = %d, want %d", v, want)
		}
	}
}

func TestFIFOPeekEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Peek of empty FIFO must panic")
		}
	}()
	var q FIFO[int]
	q.Peek()
}

// TestDoubleBufDrainSwaps: a drained burst stays readable while the
// next one accumulates in the spare buffer, and steady-state
// append/drain cycles allocate nothing.
func TestDoubleBufDrainSwaps(t *testing.T) {
	var b DoubleBuf[int]
	b.Append(1)
	b.Append(2)
	if b.Len() != 2 || b.At(0) != 1 || b.At(1) != 2 {
		t.Fatalf("burst len=%d", b.Len())
	}
	first := b.Drain()
	if b.Len() != 0 || len(first) != 2 || first[0] != 1 || first[1] != 2 {
		t.Fatalf("drained %v, len after %d", first, b.Len())
	}
	b.Append(3)
	if first[0] != 1 {
		t.Fatal("appending overwrote the burst just drained")
	}
	if second := b.Drain(); len(second) != 1 || second[0] != 3 {
		t.Fatalf("second burst %v", second)
	}
	b.Append(4)
	b.Reset()
	if b.Len() != 0 || len(b.Drain()) != 0 {
		t.Fatal("Reset kept the burst")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		b.Append(5)
		b.Append(6)
		b.Drain()
	})
	if allocs != 0 {
		t.Fatalf("steady-state DoubleBuf allocates %.1f/op, want 0", allocs)
	}
}
