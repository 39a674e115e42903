// Package host implements the simulated host kernel underneath the PAL:
// virtual memory, byte streams, a file system, threads and synchronization,
// picoprocess lifecycle, and the bulk-IPC page store. It exposes only the
// generic abstractions the paper's host ABI requires, so everything above
// it (PAL, libLinux, reference monitor) is structured as in Graphene.
package host

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"graphene/internal/api"
)

// PageSize is the simulated hardware page size.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// Page is one refcounted physical page. Pages are shared copy-on-write
// between address spaces (fork, bulk IPC); Data is allocated lazily on
// first write so untouched mappings cost no memory.
type Page struct {
	mu   sync.Mutex
	refs int32
	data []byte
	// zeroFill marks a page that is resident but has no private backing
	// yet: reads see zeros and the first write allocates. Loading a large
	// fixed image materializes pages this way, so making a range resident
	// costs page-table work, not a memclr of the whole range (the host
	// kernel's equivalent is mapping the zero page or page cache).
	zeroFill bool
}

// NewPage returns a private page with a single reference.
func NewPage() *Page { return &Page{refs: 1} }

// Ref increments the reference count (sharing the page COW).
func (p *Page) Ref() {
	p.mu.Lock()
	p.refs++
	p.mu.Unlock()
}

// Unref drops one reference. The page memory is reclaimed by GC when the
// last reference and all mappings are gone.
func (p *Page) Unref() {
	p.mu.Lock()
	p.refs--
	p.mu.Unlock()
}

// Shared reports whether more than one address space references the page.
func (p *Page) Shared() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refs > 1
}

// Resident reports whether the page has been touched (has backing
// storage, or was materialized as a zero-fill page).
func (p *Page) Resident() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.data != nil || p.zeroFill
}

// copyForWrite returns a private copy of the page for a COW break.
func (p *Page) copyForWrite() *Page {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := NewPage()
	if p.data != nil {
		n.data = make([]byte, PageSize)
		copy(n.data, p.data)
	}
	n.zeroFill = p.zeroFill
	p.refs--
	return n
}

func (p *Page) read(off int, buf []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.data == nil {
		for i := range buf {
			buf[i] = 0
		}
		return
	}
	copy(buf, p.data[off:])
}

func (p *Page) write(off int, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.data == nil {
		p.data = make([]byte, PageSize)
	}
	copy(p.data[off:], data)
}

// VMA is one virtual memory area: a contiguous, page-aligned mapping.
type VMA struct {
	Start uint64
	End   uint64 // exclusive
	Prot  int
	// pages maps page index (addr >> PageShift) to the backing page.
	pages map[uint64]*Page
}

// Len returns the VMA length in bytes.
func (v *VMA) Len() uint64 { return v.End - v.Start }

// AddressSpace is one picoprocess's virtual address space.
type AddressSpace struct {
	mu   sync.Mutex
	vmas []*VMA // sorted by Start, non-overlapping

	// next is the next address used for kernel-chosen placements.
	next uint64

	// committed counts bytes of mapped (reserved) memory; resident counts
	// bytes of touched pages, the basis of the Figure 4 footprint numbers.
	committed uint64

	// dirty records page indices written since the last ResetDirty: every
	// store (including COW breaks) and every installed or slab-touched page
	// lands here. Incremental checkpoints ship exactly this set instead of
	// every resident page, so checkpoint cost scales with the write working
	// set. Allocated lazily; freed pages are dropped from the set.
	dirty map[uint64]struct{}
}

// Address space layout constants for kernel-chosen placements.
const (
	mmapBase = 0x7f00_0000_0000
	mmapTop  = 0x7fff_ffff_f000
)

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{next: mmapBase}
}

func (as *AddressSpace) markDirtyLocked(idx uint64) {
	if as.dirty == nil {
		as.dirty = make(map[uint64]struct{})
	}
	as.dirty[idx] = struct{}{}
}

// validSpan reports whether [addr, addr+length) is non-empty and, rounded
// out to whole pages, stays below the top of the address space. A range
// that wraps would insert a VMA with End < Start and corrupt the
// committed-bytes count.
func validSpan(addr, length uint64) bool {
	end := addr + length
	return length != 0 && end > addr && end <= math.MaxUint64-PageSize+1
}

func pageAlignUp(v uint64) uint64 {
	return (v + PageSize - 1) &^ (PageSize - 1)
}

func pageAlignDown(v uint64) uint64 {
	return v &^ (PageSize - 1)
}

// Alloc maps length bytes at addr (or a kernel-chosen address if addr == 0)
// with the given protection, returning the start address.
func (as *AddressSpace) Alloc(addr uint64, length uint64, prot int) (uint64, error) {
	if !validSpan(addr, length) {
		return 0, api.EINVAL
	}
	length = pageAlignUp(length)
	as.mu.Lock()
	defer as.mu.Unlock()
	if addr == 0 {
		addr = as.findFreeLocked(length)
		if addr == 0 {
			return 0, api.ENOMEM
		}
	} else {
		addr = pageAlignDown(addr)
		if as.overlapsLocked(addr, addr+length) {
			return 0, api.ENOMEM
		}
	}
	v := &VMA{Start: addr, End: addr + length, Prot: prot, pages: make(map[uint64]*Page)}
	as.insertLocked(v)
	as.committed += length
	return addr, nil
}

// Free unmaps [addr, addr+length), splitting VMAs as needed.
func (as *AddressSpace) Free(addr uint64, length uint64) error {
	if !validSpan(addr, length) {
		return api.EINVAL
	}
	start := pageAlignDown(addr)
	end := pageAlignUp(addr + length)
	as.mu.Lock()
	defer as.mu.Unlock()
	var kept []*VMA
	for _, v := range as.vmas {
		if v.End <= start || v.Start >= end {
			kept = append(kept, v)
			continue
		}
		// Overlap: keep the non-overlapping head and tail.
		if v.Start < start {
			head := &VMA{Start: v.Start, End: start, Prot: v.Prot, pages: make(map[uint64]*Page)}
			for idx, pg := range v.pages {
				if idx < start>>PageShift {
					head.pages[idx] = pg
				}
			}
			kept = append(kept, head)
		}
		if v.End > end {
			tail := &VMA{Start: end, End: v.End, Prot: v.Prot, pages: make(map[uint64]*Page)}
			for idx, pg := range v.pages {
				if idx >= end>>PageShift {
					tail.pages[idx] = pg
				}
			}
			kept = append(kept, tail)
		}
		// Release pages in the freed range.
		lo, hi := maxU64(v.Start, start)>>PageShift, minU64(v.End, end)>>PageShift
		for idx, pg := range v.pages {
			if idx >= lo && idx < hi {
				pg.Unref()
			}
		}
		freed := minU64(v.End, end) - maxU64(v.Start, start)
		as.committed -= freed
	}
	for idx := range as.dirty {
		if idx >= start>>PageShift && idx < end>>PageShift {
			delete(as.dirty, idx)
		}
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Start < kept[j].Start })
	as.vmas = kept
	return nil
}

// Protect changes protection on [addr, addr+length). The range must be
// fully mapped.
func (as *AddressSpace) Protect(addr uint64, length uint64, prot int) error {
	start := pageAlignDown(addr)
	end := pageAlignUp(addr + length)
	as.mu.Lock()
	defer as.mu.Unlock()
	// Verify coverage first.
	cover := start
	for _, v := range as.vmas {
		if v.End <= cover || v.Start > cover {
			continue
		}
		cover = v.End
		if cover >= end {
			break
		}
	}
	if cover < end {
		return api.ENOMEM
	}
	var out []*VMA
	for _, v := range as.vmas {
		if v.End <= start || v.Start >= end {
			out = append(out, v)
			continue
		}
		split := func(lo, hi uint64, p int) {
			if lo >= hi {
				return
			}
			nv := &VMA{Start: lo, End: hi, Prot: p, pages: make(map[uint64]*Page)}
			for idx, pg := range v.pages {
				if idx >= lo>>PageShift && idx < hi>>PageShift {
					nv.pages[idx] = pg
				}
			}
			out = append(out, nv)
		}
		split(v.Start, maxU64(v.Start, start), v.Prot)
		split(maxU64(v.Start, start), minU64(v.End, end), prot)
		split(minU64(v.End, end), v.End, v.Prot)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	as.vmas = out
	return nil
}

// Write stores data at addr, breaking COW sharing as needed. Fails with
// EFAULT if the range is unmapped and EACCES if not writable.
func (as *AddressSpace) Write(addr uint64, data []byte) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for len(data) > 0 {
		v := as.findLocked(addr)
		if v == nil {
			return api.EFAULT
		}
		if v.Prot&api.ProtWrite == 0 {
			return api.EACCES
		}
		idx := addr >> PageShift
		off := int(addr & (PageSize - 1))
		n := PageSize - off
		if n > len(data) {
			n = len(data)
		}
		pg := v.pages[idx]
		if pg == nil {
			pg = NewPage()
			v.pages[idx] = pg
		} else if pg.Shared() {
			pg = pg.copyForWrite()
			v.pages[idx] = pg
		}
		pg.write(off, data[:n])
		as.markDirtyLocked(idx)
		data = data[n:]
		addr += uint64(n)
	}
	return nil
}

// Read loads len(buf) bytes from addr. Unmapped ranges fault with EFAULT;
// untouched pages read as zero.
func (as *AddressSpace) Read(addr uint64, buf []byte) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for len(buf) > 0 {
		v := as.findLocked(addr)
		if v == nil {
			return api.EFAULT
		}
		if v.Prot&api.ProtRead == 0 {
			return api.EACCES
		}
		idx := addr >> PageShift
		off := int(addr & (PageSize - 1))
		n := PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if pg := v.pages[idx]; pg != nil {
			pg.read(off, buf[:n])
		} else {
			for i := 0; i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// Mapped reports whether addr is inside a mapping.
func (as *AddressSpace) Mapped(addr uint64) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.findLocked(addr) != nil
}

// CommittedBytes returns the total mapped size.
func (as *AddressSpace) CommittedBytes() uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.committed
}

// ResidentBytes returns the resident set size: bytes of touched pages.
// Pages shared COW between address spaces are charged fractionally the
// same way the kernel's RSS counts them fully but KSM-style sharing is
// what Figure 4 measures — we charge a shared page to every mapper divided
// by its reference count, matching "incremental cost of a child" in §6.2.
func (as *AddressSpace) ResidentBytes() uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	var total float64
	for _, v := range as.vmas {
		for _, pg := range v.pages {
			if !pg.Resident() {
				continue
			}
			pg.mu.Lock()
			refs := pg.refs
			pg.mu.Unlock()
			if refs < 1 {
				refs = 1
			}
			total += float64(PageSize) / float64(refs)
		}
	}
	return uint64(total)
}

// TouchedPages returns the indices of resident pages within [start, end),
// along with their backing pages, for bulk IPC.
func (as *AddressSpace) TouchedPages(start, end uint64) (idxs []uint64, pages []*Page) {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, v := range as.vmas {
		if v.End <= start || v.Start >= end {
			continue
		}
		for idx, pg := range v.pages {
			a := idx << PageShift
			if a >= start && a < end && pg.Resident() {
				idxs = append(idxs, idx)
				pages = append(pages, pg)
			}
		}
	}
	return idxs, pages
}

// DirtyPages returns the indices (and backing pages) of resident pages
// within [start, end) written since the last ResetDirty. This is what an
// incremental checkpoint ships: the write working set, not the full
// resident set.
func (as *AddressSpace) DirtyPages(start, end uint64) (idxs []uint64, pages []*Page) {
	as.mu.Lock()
	defer as.mu.Unlock()
	lo, hi := start>>PageShift, (end+PageSize-1)>>PageShift
	for idx := range as.dirty {
		if idx < lo || idx >= hi {
			continue
		}
		v := as.findLocked(idx << PageShift)
		if v == nil {
			continue
		}
		if pg := v.pages[idx]; pg != nil && pg.Resident() {
			idxs = append(idxs, idx)
			pages = append(pages, pg)
		}
	}
	return idxs, pages
}

// ResetDirty clears the dirty set — called after a checkpoint snapshot so
// the next one ships only pages touched since.
func (as *AddressSpace) ResetDirty() {
	as.mu.Lock()
	as.dirty = nil
	as.mu.Unlock()
}

// InstallPage maps pg (shared, COW) at page index idx. The target range
// must already be mapped. Used by bulk IPC on the receive side.
func (as *AddressSpace) InstallPage(idx uint64, pg *Page) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.installPageLocked(idx, pg)
}

func (as *AddressSpace) installPageLocked(idx uint64, pg *Page) error {
	v := as.findLocked(idx << PageShift)
	if v == nil {
		return api.EFAULT
	}
	if old := v.pages[idx]; old != nil {
		old.Unref()
	}
	pg.Ref()
	v.pages[idx] = pg
	as.markDirtyLocked(idx)
	return nil
}

// InstallPages maps pages[i] at page index idxs[i] under a single lock
// acquisition — the batched receive side of bulk IPC, one lock per batch
// instead of one per page. Pages whose target index is unmapped are
// skipped. Returns the number installed.
func (as *AddressSpace) InstallPages(idxs []uint64, pages []*Page) int {
	as.mu.Lock()
	defer as.mu.Unlock()
	installed := 0
	for i, idx := range idxs {
		if as.installPageLocked(idx, pages[i]) == nil {
			installed++
		}
	}
	return installed
}

// TouchRange makes every page of [addr, addr+length) resident in one pass:
// one lock acquisition and one backing-slab allocation for the whole range
// instead of a page-at-a-time write loop. Pages already resident are left
// alone. The slab stays alive while any of its pages does (COW breaks copy
// out of it); callers load large fixed images (the libOS image) where all
// pages are fresh, so the over-retention case does not arise in practice.
func (as *AddressSpace) TouchRange(addr, length uint64) error {
	if length == 0 {
		return nil
	}
	start := pageAlignDown(addr)
	end := pageAlignUp(addr + length)
	as.mu.Lock()
	defer as.mu.Unlock()
	// Fresh pages materialize as zero-fill out of one Page slab: no
	// backing memclr (the dominant cost of the old per-page loop — 1.4 MB
	// zeroed per fork for the libOS image), and one allocation for the
	// whole range's bookkeeping.
	slab := make([]Page, (end-start)>>PageShift)
	si := 0
	for a := start; a < end; a += PageSize {
		v := as.findLocked(a)
		if v == nil {
			return api.EFAULT
		}
		if v.Prot&api.ProtWrite == 0 {
			return api.EACCES
		}
		idx := a >> PageShift
		pg := v.pages[idx]
		switch {
		case pg == nil:
			fresh := &slab[si]
			fresh.refs = 1
			fresh.zeroFill = true
			v.pages[idx] = fresh
		case pg.Shared():
			pg = pg.copyForWrite()
			v.pages[idx] = pg
		}
		as.markDirtyLocked(idx)
		si++
	}
	return nil
}

// ForkCOW clones the address space with every resident page shared
// copy-on-write — the in-kernel fast path a native fork takes, as opposed
// to Graphene's checkpoint+bulk-IPC fork which serializes libOS state.
func (as *AddressSpace) ForkCOW() *AddressSpace {
	as.mu.Lock()
	defer as.mu.Unlock()
	child := NewAddressSpace()
	child.next = as.next
	child.committed = as.committed
	for _, v := range as.vmas {
		nv := &VMA{Start: v.Start, End: v.End, Prot: v.Prot, pages: make(map[uint64]*Page, len(v.pages))}
		for idx, pg := range v.pages {
			pg.Ref()
			nv.pages[idx] = pg
		}
		child.vmas = append(child.vmas, nv)
	}
	return child
}

// Release drops all mappings (process exit).
func (as *AddressSpace) Release() {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, v := range as.vmas {
		for _, pg := range v.pages {
			pg.Unref()
		}
	}
	as.vmas = nil
	as.committed = 0
	as.dirty = nil
}

func (as *AddressSpace) insertLocked(v *VMA) {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].Start >= v.Start })
	as.vmas = append(as.vmas, nil)
	copy(as.vmas[i+1:], as.vmas[i:])
	as.vmas[i] = v
}

func (as *AddressSpace) findLocked(addr uint64) *VMA {
	i := sort.Search(len(as.vmas), func(i int) bool { return as.vmas[i].End > addr })
	if i < len(as.vmas) && as.vmas[i].Start <= addr {
		return as.vmas[i]
	}
	return nil
}

func (as *AddressSpace) overlapsLocked(start, end uint64) bool {
	for _, v := range as.vmas {
		if v.Start < end && start < v.End {
			return true
		}
	}
	return false
}

func (as *AddressSpace) findFreeLocked(length uint64) uint64 {
	addr := as.next
	for addr+length <= mmapTop {
		if !as.overlapsLocked(addr, addr+length) {
			as.next = addr + length
			return addr
		}
		// Skip past the blocking VMA.
		for _, v := range as.vmas {
			if v.Start < addr+length && addr < v.End {
				addr = v.End
				break
			}
		}
	}
	return 0
}

func (as *AddressSpace) String() string {
	as.mu.Lock()
	defer as.mu.Unlock()
	return fmt.Sprintf("AddressSpace{%d vmas, %d committed}", len(as.vmas), as.committed)
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
