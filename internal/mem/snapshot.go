package mem

// PageState is one physical page's checkpoint image. Data is nil when
// the page has never been written (the allocator's lazy-zero state),
// which keeps snapshots of mostly-untouched memory small.
type PageState struct {
	Owner   DomID
	Ref     int
	Freed   bool
	HypOnly bool
	Data    []byte
}

// State is the whole physical memory's checkpoint image. Pages is
// indexed by PFN with entry 0 unused, one entry per frame below
// NextPFN.
type State struct {
	Pages     []PageState
	FreeQ     []PFN
	NextPFN   PFN
	DevWrites []uint64
}

// State captures the memory: ownership, refcounts, protection bits, and
// byte contents of every page. Page data is copied so the snapshot is
// immune to later DMA writes.
func (m *Memory) State() State {
	s := State{
		Pages:     make([]PageState, m.nextPFN),
		FreeQ:     append([]PFN(nil), m.freeQ...),
		NextPFN:   m.nextPFN,
		DevWrites: append([]uint64(nil), m.devWrites...),
	}
	for i := range s.Pages {
		pg := m.lookup(PFN(i))
		if pg == nil {
			continue // PFN 0
		}
		ps := PageState{Owner: pg.owner, Ref: int(pg.ref), Freed: pg.freed, HypOnly: pg.hypOnly}
		if pg.data != nil {
			ps.Data = append([]byte(nil), pg.data[:]...)
		}
		s.Pages[i] = ps
	}
	return s
}

// SetState restores the memory from a State image, replacing the entire
// page table. The restored machine's construction-time allocations are
// overwritten wholesale — the image is authoritative.
func (m *Memory) SetState(s State) {
	n := max(len(s.Pages), int(s.NextPFN))
	m.chunks = make([]*[chunkPages]page, (n+chunkMask)>>chunkShift)
	for i := range m.chunks {
		m.chunks[i] = new([chunkPages]page)
	}
	for i := range s.Pages {
		ps := &s.Pages[i]
		pg := page{owner: ps.Owner, ref: int32(ps.Ref), freed: ps.Freed, hypOnly: ps.HypOnly}
		if ps.Data != nil {
			pg.data = new([PageSize]byte)
			copy(pg.data[:], ps.Data)
		}
		m.chunks[i>>chunkShift][i&chunkMask] = pg
	}
	m.freeQ = append(m.freeQ[:0], s.FreeQ...)
	m.nextPFN = s.NextPFN
	m.devWrites = append(m.devWrites[:0], s.DevWrites...)
}
