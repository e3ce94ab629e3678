package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

const guestA, guestB = Dom0 + 1, Dom0 + 2

func TestAllocOwnership(t *testing.T) {
	m := New()
	pfns := m.Alloc(guestA, 3)
	if len(pfns) != 3 {
		t.Fatalf("Alloc returned %d pages", len(pfns))
	}
	for _, p := range pfns {
		if m.Owner(p) != guestA {
			t.Fatalf("page %d owner = %d", p, m.Owner(p))
		}
	}
	if m.Pages(guestA) != 3 {
		t.Fatalf("Pages = %d", m.Pages(guestA))
	}
}

func TestPFNZeroNeverAllocated(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if p == 0 {
		t.Fatal("PFN 0 must never be allocated (Addr 0 is reserved invalid)")
	}
}

func TestFreeAndReuse(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Free(guestA, p); err != nil {
		t.Fatal(err)
	}
	if m.Owner(p) != DomInvalid {
		t.Fatal("freed page retains owner")
	}
	q := m.AllocOne(guestB)
	if q != p {
		t.Fatalf("free page not reused: got %d want %d", q, p)
	}
	if m.Owner(q) != guestB {
		t.Fatal("reused page has wrong owner")
	}
}

func TestFreeWrongOwner(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Free(guestB, p); err != ErrNotOwner {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
}

func TestDoubleFree(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Free(guestA, p); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(guestA, p); err != ErrFreed {
		t.Fatalf("double free err = %v, want ErrFreed", err)
	}
}

// TestNoReallocationWhilePinned is the paper's §3.3 guarantee: a page
// freed during an outstanding DMA must not be handed to another domain
// until the reference is dropped.
func TestNoReallocationWhilePinned(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Get(p); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(guestA, p); err != nil {
		t.Fatal(err)
	}
	q := m.AllocOne(guestB)
	if q == p {
		t.Fatal("pinned page was reallocated")
	}
	if err := m.Put(p); err != nil {
		t.Fatal(err)
	}
	r := m.AllocOne(guestB)
	if r != p {
		t.Fatalf("unpinned freed page should now be reusable: got %d want %d", r, p)
	}
}

func TestPutUnderflow(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Put(p); err != ErrZeroRef {
		t.Fatalf("err = %v, want ErrZeroRef", err)
	}
}

func TestTransfer(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Transfer(p, guestA, Dom0); err != nil {
		t.Fatal(err)
	}
	if m.Owner(p) != Dom0 {
		t.Fatal("transfer did not change owner")
	}
	if err := m.Transfer(p, guestA, guestB); err != ErrNotOwner {
		t.Fatalf("err = %v, want ErrNotOwner", err)
	}
}

func TestTransferPinnedFails(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	m.Get(p)
	if err := m.Transfer(p, guestA, Dom0); err != ErrPageBusy {
		t.Fatalf("err = %v, want ErrPageBusy", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	addr := p.Base() + 100
	want := []byte("hello, descriptor ring")
	if err := m.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(addr, len(want))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %q", got)
	}
}

func TestReadUntouchedPageIsZero(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	got, err := m.Read(p.Base(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("untouched page must read as zeros")
		}
	}
}

func TestWriteCrossesPages(t *testing.T) {
	m := New()
	pfns := m.Alloc(guestA, 2)
	if pfns[1] != pfns[0]+1 {
		t.Skip("allocator returned non-contiguous pages")
	}
	addr := pfns[0].Base() + PageSize - 4
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.Write(addr, want); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Read(addr, 8)
	if !bytes.Equal(got, want) {
		t.Fatalf("cross-page read = %v", got)
	}
}

func TestReuseZeroesData(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	m.Write(p.Base(), []byte{0xde, 0xad})
	m.Free(guestA, p)
	q := m.AllocOne(guestB)
	if q != p {
		t.Skip("allocator did not reuse the page")
	}
	got, _ := m.Read(q.Base(), 2)
	if got[0] != 0 || got[1] != 0 {
		t.Fatal("reallocated page leaked previous contents")
	}
}

func TestWriteAsOwnership(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.WriteAs(guestB, p.Base(), []byte{1}); err != ErrNotOwner {
		t.Fatalf("cross-domain CPU write err = %v, want ErrNotOwner", err)
	}
	if err := m.WriteAs(guestA, p.Base(), []byte{1}); err != nil {
		t.Fatalf("owner write failed: %v", err)
	}
	if err := m.WriteAs(DomHyp, p.Base(), []byte{2}); err != nil {
		t.Fatalf("hypervisor write failed: %v", err)
	}
}

func TestHypExclusiveRing(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.SetHypExclusive(p, true); err != nil {
		t.Fatal(err)
	}
	if !m.HypExclusive(p) {
		t.Fatal("HypExclusive not set")
	}
	if err := m.WriteAs(guestA, p.Base(), []byte{1}); err != ErrHypExclusive {
		t.Fatalf("guest write to hyp-exclusive ring err = %v, want ErrHypExclusive", err)
	}
	if err := m.WriteAs(DomHyp, p.Base(), []byte{1}); err != nil {
		t.Fatalf("hypervisor must retain write access: %v", err)
	}
	m.SetHypExclusive(p, false)
	if err := m.WriteAs(guestA, p.Base(), []byte{1}); err != nil {
		t.Fatalf("write after clearing exclusivity failed: %v", err)
	}
}

func TestRangeOwned(t *testing.T) {
	m := New()
	a := m.AllocOne(guestA)
	b := m.AllocOne(guestB)
	if !m.RangeOwned(guestA, a.Base(), PageSize) {
		t.Fatal("own page should be owned")
	}
	if m.RangeOwned(guestA, b.Base(), 1) {
		t.Fatal("foreign page must not validate")
	}
	if m.RangeOwned(guestA, a.Base(), 0) {
		t.Fatal("empty range must not validate")
	}
	// A range spilling from an owned page into a foreign page must fail.
	if b == a+1 && m.RangeOwned(guestA, a.Base()+PageSize-1, 2) {
		t.Fatal("range crossing into foreign page validated")
	}
	m.Free(guestA, a)
	if m.RangeOwned(guestA, a.Base(), 8) {
		t.Fatal("freed page must not validate")
	}
}

func TestRangePFNs(t *testing.T) {
	got := RangePFNs(Addr(PageSize-1), 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("RangePFNs = %v", got)
	}
	if RangePFNs(0, 0) != nil {
		t.Fatal("empty range should return nil")
	}
}

func TestAddrHelpers(t *testing.T) {
	a := Addr(5*PageSize + 123)
	if a.PFN() != 5 || a.Offset() != 123 {
		t.Fatalf("PFN=%d Offset=%d", a.PFN(), a.Offset())
	}
	if PFN(5).Base() != Addr(5*PageSize) {
		t.Fatalf("Base = %d", PFN(5).Base())
	}
}

func TestDeviceWriteCounter(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	m.Write(p.Base(), make([]byte, 100))
	if m.DeviceWritten(guestA) != 100 {
		t.Fatalf("DeviceWrites = %d", m.DeviceWritten(guestA))
	}
}

// Property: refcounts never go negative and a pinned+freed page is never
// handed out, across random operation sequences.
func TestRefcountProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		m := New()
		p := m.AllocOne(guestA)
		refs := 0
		freed := false
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if m.Get(p) == nil {
					refs++
				}
			case 1:
				err := m.Put(p)
				if refs == 0 && err != ErrZeroRef {
					return false
				}
				if refs > 0 {
					if err != nil {
						return false
					}
					refs--
				}
			case 2:
				if !freed {
					if m.Free(guestA, p) != nil {
						return false
					}
					freed = true
				}
			}
			if m.Refs(p) != refs {
				return false
			}
			if freed && refs > 0 {
				if q := m.AllocOne(guestB); q == p {
					return false
				}
			}
			if freed {
				break // after free, only Get/Put on pinned page remain meaningful
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// allocAcrossChunks allocates frames 1..n to guestA, so the table
// spans more than one chunk when n >= chunkPages.
func allocAcrossChunks(t *testing.T, m *Memory, n int) []PFN {
	t.Helper()
	pfns := m.Alloc(guestA, n)
	for i, p := range pfns {
		if p != PFN(i+1) {
			t.Fatalf("fresh allocation %d got pfn %d; want %d", i, p, i+1)
		}
	}
	return pfns
}

// TestChunkBoundaryReuse: frames on either side of a chunk boundary
// allocate, free and — when pinned — wait for their last reference
// before reuse, exactly like frames inside one chunk.
func TestChunkBoundaryReuse(t *testing.T) {
	m := New()
	allocAcrossChunks(t, m, chunkPages+8)
	last, first := PFN(chunkPages-1), PFN(chunkPages) // last of chunk 0, first of chunk 1
	if err := m.Get(first); err != nil {
		t.Fatal(err)
	}
	for _, p := range []PFN{first, last} {
		if err := m.Free(guestA, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.AllocOne(guestB); got != last {
		t.Fatalf("first reuse got pfn %d; want the unpinned %d", got, last)
	}
	if got := m.AllocOne(guestB); got != chunkPages+9 {
		t.Fatalf("pinned pfn %d reused (got %d); want fresh pfn %d", first, got, chunkPages+9)
	}
	if err := m.Put(first); err != nil {
		t.Fatal(err)
	}
	if got := m.AllocOne(guestB); got != first {
		t.Fatalf("unpinned pfn %d not reused (got %d)", first, got)
	}
	for _, p := range []PFN{last, first} {
		if m.Owner(p) != guestB || m.Refs(p) != 0 {
			t.Fatalf("pfn %d: owner %d refs %d; want %d, 0", p, m.Owner(p), m.Refs(p), guestB)
		}
	}
	if m.Owner(chunkPages+10) != DomInvalid {
		t.Fatal("frame past the table reports an owner")
	}
}

// TestPagesAcrossChunks counts live pages spread over three chunks.
func TestPagesAcrossChunks(t *testing.T) {
	m := New()
	n := 2*chunkPages + 5
	pfns := allocAcrossChunks(t, m, n)
	m.Alloc(guestB, 3)
	for _, p := range pfns[chunkPages-2 : chunkPages+2] {
		if err := m.Free(guestA, p); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Pages(guestA); got != n-4 {
		t.Fatalf("Pages(guestA) = %d; want %d", got, n-4)
	}
	if got := m.Pages(guestB); got != 3 {
		t.Fatalf("Pages(guestB) = %d; want 3", got)
	}
}

// TestPageBitsAcrossChunks: in a multi-chunk table, written,
// never-written, pinned, freed and protected pages keep their contents
// and bits on both sides of a chunk boundary, and the allocator reuses
// the freed frame before growing the table.
func TestPageBitsAcrossChunks(t *testing.T) {
	m := New()
	n := chunkPages + 100
	allocAcrossChunks(t, m, n)
	written := []PFN{1, chunkPages - 1, chunkPages, PFN(n)}
	for i, p := range written {
		if err := m.Write(p.Base()+Addr(i), []byte{byte(0x10 + i), 0xff}); err != nil {
			t.Fatal(err)
		}
	}
	m.Get(chunkPages + 1)
	m.Free(guestA, chunkPages+1) // pinned: stays out of the free queue
	m.Free(guestA, 7)
	m.SetHypExclusive(chunkPages+2, true)

	for i, p := range written {
		got, err := m.Read(p.Base()+Addr(i), 2)
		if err != nil || got[0] != byte(0x10+i) || got[1] != 0xff {
			t.Fatalf("pfn %d contents %v (err %v)", p, got, err)
		}
	}
	if got, err := m.Read(PFN(2).Base(), 2); err != nil || got[0] != 0 || got[1] != 0 {
		t.Fatalf("never-written pfn 2 reads %v (err %v)", got, err)
	}
	if m.Refs(chunkPages+1) != 1 || !m.HypExclusive(chunkPages+2) || m.Owner(7) != DomInvalid {
		t.Fatal("page bits differ")
	}
	if got := m.Alloc(guestB, 2); got[0] != 7 || got[1] != PFN(n+1) {
		t.Fatalf("allocator handed out %v; want [7 %d]", got, n+1)
	}
}

// TestReuseNeverWrittenPage: a reused page that was never written has
// no contents to clear and still reads as zeros.
func TestReuseNeverWrittenPage(t *testing.T) {
	m := New()
	p := m.AllocOne(guestA)
	if err := m.Free(guestA, p); err != nil {
		t.Fatal(err)
	}
	q := m.AllocOne(guestB)
	if q != p {
		t.Fatalf("free page not reused: got %d want %d", q, p)
	}
	got, err := m.Read(q.Base(), PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("never-written reused page does not read as zeros")
	}
}

// TestUnallocatedFrameErrors: every page operation on a frame beyond
// the allocated table reports ErrNoPage (or a zero answer) instead of
// growing the table or touching another page.
func TestUnallocatedFrameErrors(t *testing.T) {
	m := New()
	m.AllocOne(guestA)
	ghost := PFN(chunkPages + 5) // past the table's only chunk
	for name, err := range map[string]error{
		"Free":            m.Free(guestA, ghost),
		"Get":             m.Get(ghost),
		"Put":             m.Put(ghost),
		"Transfer":        m.Transfer(ghost, guestA, guestB),
		"SetHypExclusive": m.SetHypExclusive(ghost, true),
		"Write":           m.Write(ghost.Base(), []byte{1}),
		"WriteAs":         m.WriteAs(guestA, ghost.Base(), []byte{1}),
	} {
		if !errors.Is(err, ErrNoPage) {
			t.Errorf("%s on an unallocated frame: %v, want ErrNoPage", name, err)
		}
	}
	if _, err := m.Read(ghost.Base(), 4); !errors.Is(err, ErrNoPage) {
		t.Errorf("Read on an unallocated frame: %v, want ErrNoPage", err)
	}
	if m.Refs(ghost) != 0 || m.HypExclusive(ghost) {
		t.Error("unallocated frame reports page bits")
	}
	if m.DeviceWritten(guestB) != 0 {
		t.Error("DeviceWritten for a domain with no pages")
	}
	// An empty WriteAs checks only the first page's permissions.
	if err := m.WriteAs(guestA, PFN(1).Base(), nil); err != nil {
		t.Fatalf("empty WriteAs on an owned page: %v", err)
	}
	if err := m.WriteAs(guestB, PFN(1).Base(), nil); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("empty WriteAs on a foreign page: %v, want ErrNotOwner", err)
	}
}
