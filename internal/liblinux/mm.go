package liblinux

import (
	"sync"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/pal"
)

// brkBase is where the legacy data segment starts in every process. The
// libOS maps Linux's brk abstraction onto the PAL's three memory calls
// (§2's division-of-labor example).
const brkBase = 0x1000_0000

// brkMax bounds the data segment (256 MiB).
const brkMax = brkBase + 256*1024*1024

// Region is one mmap'd area tracked for checkpointing.
type Region struct {
	Start, End uint64
	Prot       int
}

// mmState is the libOS's memory bookkeeping: the program break and the
// list of anonymous mappings, all backed by DkVirtualMemoryAlloc/Free.
type mmState struct {
	pal *pal.PAL

	mu     sync.Mutex
	brk    uint64 // current break (byte granular; pages are allocated lazily)
	brkEnd uint64 // page-aligned top of allocated break pages
	mmaps  []Region
}

func newMMState(p *pal.PAL) (*mmState, error) {
	return &mmState{pal: p, brk: brkBase, brkEnd: brkBase}, nil
}

// Brk implements sys_brk: addr == 0 queries; otherwise the break moves,
// allocating or freeing whole pages underneath.
func (m *mmState) Brk(addr uint64) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if addr == 0 {
		return m.brk, nil
	}
	if addr < brkBase || addr > brkMax {
		return m.brk, api.ENOMEM
	}
	newEnd := pageUp(addr)
	switch {
	case newEnd > m.brkEnd:
		if _, err := m.pal.DkVirtualMemoryAlloc(m.brkEnd, newEnd-m.brkEnd, api.ProtRead|api.ProtWrite); err != nil {
			return m.brk, err
		}
		m.brkEnd = newEnd
	case newEnd < m.brkEnd:
		if err := m.pal.DkVirtualMemoryFree(newEnd, m.brkEnd-newEnd); err != nil {
			return m.brk, err
		}
		m.brkEnd = newEnd
	}
	m.brk = addr
	return m.brk, nil
}

// Mmap maps an anonymous region.
func (m *mmState) Mmap(addr uint64, length uint64, prot int) (uint64, error) {
	got, err := m.pal.DkVirtualMemoryAlloc(addr, length, prot)
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	m.mmaps = append(m.mmaps, Region{Start: got, End: got + pageUp(length), Prot: prot})
	m.mu.Unlock()
	return got, nil
}

// Munmap unmaps [addr, addr+length).
func (m *mmState) Munmap(addr uint64, length uint64) error {
	if err := m.pal.DkVirtualMemoryFree(addr, length); err != nil {
		return err
	}
	end := pageUp(addr + length)
	start := addr &^ (host.PageSize - 1)
	m.mu.Lock()
	var kept []Region
	for _, r := range m.mmaps {
		if r.End <= start || r.Start >= end {
			kept = append(kept, r)
			continue
		}
		if r.Start < start {
			kept = append(kept, Region{Start: r.Start, End: start, Prot: r.Prot})
		}
		if r.End > end {
			kept = append(kept, Region{Start: end, End: r.End, Prot: r.Prot})
		}
	}
	m.mmaps = kept
	m.mu.Unlock()
	return nil
}

// restore installs a checkpointed memory layout (the pages arrive
// separately, via bulk IPC or a page dump).
func (m *mmState) restore(brk, brkEnd uint64, mmaps []Region) {
	m.mu.Lock()
	m.brk = brk
	m.brkEnd = brkEnd
	m.mmaps = append([]Region(nil), mmaps...)
	m.mu.Unlock()
}

// reset drops the program image across exec: break and mappings.
func (m *mmState) reset() {
	m.mu.Lock()
	brkEnd := m.brkEnd
	mmaps := m.mmaps
	m.brk = brkBase
	m.brkEnd = brkBase
	m.mmaps = nil
	m.mu.Unlock()
	if brkEnd > brkBase {
		_ = m.pal.DkVirtualMemoryFree(brkBase, brkEnd-brkBase)
	}
	for _, r := range mmaps {
		_ = m.pal.DkVirtualMemoryFree(r.Start, r.End-r.Start)
	}
}

func pageUp(v uint64) uint64 {
	return (v + host.PageSize - 1) &^ (host.PageSize - 1)
}

// --- Process-level memory API ---

// Brk adjusts or queries the program break.
func (p *Process) Brk(addr uint64) (uint64, error) { return p.mm.Brk(addr) }

// Mmap maps anonymous memory.
func (p *Process) Mmap(addr uint64, length uint64, prot int) (uint64, error) {
	return p.mm.Mmap(addr, length, prot)
}

// Munmap unmaps memory.
func (p *Process) Munmap(addr uint64, length uint64) error {
	return p.mm.Munmap(addr, length)
}

// MemWrite stores into guest memory (stands in for direct stores).
func (p *Process) MemWrite(addr uint64, data []byte) error {
	return p.pal.MemWrite(addr, data)
}

// MemRead loads from guest memory.
func (p *Process) MemRead(addr uint64, buf []byte) error {
	return p.pal.MemRead(addr, buf)
}
