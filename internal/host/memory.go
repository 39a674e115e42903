// Package host implements the simulated host kernel underneath the PAL:
// virtual memory, byte streams, a file system, threads and synchronization,
// picoprocess lifecycle, and the bulk-IPC page store. It exposes only the
// generic abstractions the paper's host ABI requires, so everything above
// it (PAL, libLinux, reference monitor) is structured as in Graphene.
package host

import (
	"fmt"
	"math"
	"math/bits"
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

// VMA is one virtual memory area: a contiguous, page-aligned mapping. It
// holds only range and protection; the pages live in the address space's
// page table, so splitting a VMA moves no pages.
type VMA struct {
	Start uint64
	End   uint64 // exclusive
	Prot  int
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

	// leaves is the page table, sorted by leaf number. A leaf exists only
	// once one of its pages has been touched, so the table costs memory in
	// proportion to touched pages, never to mapped length.
	leaves []*ptLeaf
}

// A page-table leaf covers leafPages consecutive pages (2 MiB, an x86-64
// last-level table).
const (
	leafShift = 9
	leafPages = 1 << leafShift
)

// ptLeaf is one page-table leaf: the backing page of each slot and a dirty
// bit per slot. A dirty bit records a write since the last ResetDirty —
// every store (including COW breaks) and every installed or slab-touched
// page sets it — so incremental checkpoints ship exactly the write working
// set instead of every resident page. Freeing a page clears its bit.
type ptLeaf struct {
	num   uint64 // page index >> leafShift
	used  int    // non-nil slots; an empty leaf is dropped
	pages [leafPages]*Page
	dirty [leafPages / 64]uint64
}

func (l *ptLeaf) set(slot uint64, pg *Page) {
	if l.pages[slot] == nil {
		l.used++
	}
	l.pages[slot] = pg
}

func (l *ptLeaf) markDirty(slot uint64) {
	l.dirty[slot/64] |= 1 << (slot % 64)
}

// clear unmaps the slots [lo, hi), dropping their references and dirty
// bits.
func (l *ptLeaf) clear(lo, hi uint64) {
	for i := lo; i < hi; i++ {
		if pg := l.pages[i]; pg != nil {
			pg.Unref()
			l.pages[i] = nil
			l.used--
		}
		l.dirty[i/64] &^= 1 << (i % 64)
	}
}

// slots returns the slot range of l that falls inside the page indices
// [lo, hi).
func (l *ptLeaf) slots(lo, hi uint64) (uint64, uint64) {
	base := l.num << leafShift
	from, to := uint64(0), uint64(leafPages)
	if lo > base {
		from = lo - base
	}
	if hi < base+leafPages {
		to = hi - base
	}
	return from, to
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

// leafIndexLocked returns the position of leaf number n in as.leaves, or
// where it would be inserted.
func (as *AddressSpace) leafIndexLocked(n uint64) int {
	return sort.Search(len(as.leaves), func(i int) bool { return as.leaves[i].num >= n })
}

// leafLocked returns the leaf holding page idx and idx's slot in it,
// allocating the leaf when create is set; nil if absent and not created.
func (as *AddressSpace) leafLocked(idx uint64, create bool) (*ptLeaf, uint64) {
	n, slot := idx>>leafShift, idx&(leafPages-1)
	i := as.leafIndexLocked(n)
	if i < len(as.leaves) && as.leaves[i].num == n {
		return as.leaves[i], slot
	}
	if !create {
		return nil, slot
	}
	l := &ptLeaf{num: n}
	as.leaves = append(as.leaves, nil)
	copy(as.leaves[i+1:], as.leaves[i:])
	as.leaves[i] = l
	return l, slot
}

func (as *AddressSpace) pageLocked(idx uint64) *Page {
	if l, slot := as.leafLocked(idx, false); l != nil {
		return l.pages[slot]
	}
	return nil
}

// leafRangeLocked returns the bounds in as.leaves of the leaves that hold
// pages of [lo, hi) (page indices): walks over the range visit only leaves
// that exist, however sparse the range.
func (as *AddressSpace) leafRangeLocked(lo, hi uint64) (i, j int) {
	if lo >= hi {
		return 0, 0
	}
	return as.leafIndexLocked(lo >> leafShift), as.leafIndexLocked((hi-1)>>leafShift + 1)
}

// leavesLocked returns the leaves that hold pages of [lo, hi), in
// ascending order.
func (as *AddressSpace) leavesLocked(lo, hi uint64) []*ptLeaf {
	i, j := as.leafRangeLocked(lo, hi)
	return as.leaves[i:j]
}

// unmapLocked drops the pages of [lo, hi) (page indices) from the page
// table, and the leaves that become empty.
func (as *AddressSpace) unmapLocked(lo, hi uint64) {
	i, j := as.leafRangeLocked(lo, hi)
	k := i
	for _, l := range as.leaves[i:j] {
		l.clear(l.slots(lo, hi))
		if l.used > 0 {
			as.leaves[k] = l
			k++
		}
	}
	if k < j {
		n := copy(as.leaves[k:], as.leaves[j:])
		clear(as.leaves[k+n:])
		as.leaves = as.leaves[:k+n]
	}
}

// pageSpan returns the page indices [lo, hi) of the pages that overlap
// [start, end).
func pageSpan(start, end uint64) (lo, hi uint64) {
	hi = end >> PageShift
	if end&(PageSize-1) != 0 {
		hi++
	}
	return start >> PageShift, hi
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
	v := &VMA{Start: addr, End: addr + length, Prot: prot}
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
	// Walking in address order keeps heads, tails and untouched VMAs
	// sorted.
	var kept []*VMA
	for _, v := range as.vmas {
		if v.End <= start || v.Start >= end {
			kept = append(kept, v)
			continue
		}
		// Overlap: keep the non-overlapping head and tail.
		if v.Start < start {
			kept = append(kept, &VMA{Start: v.Start, End: start, Prot: v.Prot})
		}
		if v.End > end {
			kept = append(kept, &VMA{Start: end, End: v.End, Prot: v.Prot})
		}
		as.committed -= minU64(v.End, end) - maxU64(v.Start, start)
	}
	as.vmas = kept
	as.unmapLocked(start>>PageShift, end>>PageShift)
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
			if lo < hi {
				out = append(out, &VMA{Start: lo, End: hi, Prot: p})
			}
		}
		split(v.Start, maxU64(v.Start, start), v.Prot)
		split(maxU64(v.Start, start), minU64(v.End, end), prot)
		split(minU64(v.End, end), v.End, v.Prot)
	}
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
		l, slot := as.leafLocked(idx, true)
		pg := l.pages[slot]
		if pg == nil {
			pg = NewPage()
			l.set(slot, pg)
		} else if pg.Shared() {
			pg = pg.copyForWrite()
			l.pages[slot] = pg
		}
		pg.write(off, data[:n])
		l.markDirty(slot)
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
		if pg := as.pageLocked(idx); pg != nil {
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
	for _, l := range as.leaves {
		for _, pg := range l.pages {
			if pg == nil || !pg.Resident() {
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
// in ascending order, along with their backing pages, for bulk IPC.
func (as *AddressSpace) TouchedPages(start, end uint64) (idxs []uint64, pages []*Page) {
	as.mu.Lock()
	defer as.mu.Unlock()
	lo, hi := pageSpan(start, end)
	for _, l := range as.leavesLocked(lo, hi) {
		from, to := l.slots(lo, hi)
		for i := from; i < to; i++ {
			if pg := l.pages[i]; pg != nil && pg.Resident() {
				idxs = append(idxs, l.num<<leafShift+i)
				pages = append(pages, pg)
			}
		}
	}
	return idxs, pages
}

// DirtyPages returns the indices (and backing pages) of resident pages
// within [start, end) written since the last ResetDirty, in ascending
// order. This is what an incremental checkpoint ships: the write working
// set, not the full resident set.
func (as *AddressSpace) DirtyPages(start, end uint64) (idxs []uint64, pages []*Page) {
	as.mu.Lock()
	defer as.mu.Unlock()
	lo, hi := pageSpan(start, end)
	for _, l := range as.leavesLocked(lo, hi) {
		from, to := l.slots(lo, hi)
		for w := from / 64; w <= (to-1)/64; w++ {
			for word := l.dirty[w]; word != 0; word &= word - 1 {
				i := w*64 + uint64(bits.TrailingZeros64(word))
				if i < from || i >= to {
					continue
				}
				if pg := l.pages[i]; pg != nil && pg.Resident() {
					idxs = append(idxs, l.num<<leafShift+i)
					pages = append(pages, pg)
				}
			}
		}
	}
	return idxs, pages
}

// ResetDirty clears the dirty bits — called after a checkpoint snapshot so
// the next one ships only pages touched since.
func (as *AddressSpace) ResetDirty() {
	as.mu.Lock()
	for _, l := range as.leaves {
		l.dirty = [leafPages / 64]uint64{}
	}
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
	if as.findLocked(idx<<PageShift) == nil {
		return api.EFAULT
	}
	l, slot := as.leafLocked(idx, true)
	if old := l.pages[slot]; old != nil {
		old.Unref()
	}
	pg.Ref()
	l.set(slot, pg)
	l.markDirty(slot)
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
	// Check the whole range first, so a fault leaves no page touched.
	for a := start; a < end; {
		v := as.findLocked(a)
		if v == nil {
			return api.EFAULT
		}
		if v.Prot&api.ProtWrite == 0 {
			return api.EACCES
		}
		a = v.End
	}
	// Fresh pages materialize as zero-fill out of one Page slab: no
	// backing memclr (the dominant cost of the old per-page loop — 1.4 MB
	// zeroed per fork for the libOS image), and one allocation for the
	// whole range's bookkeeping.
	slab := make([]Page, (end-start)>>PageShift)
	for si, idx := 0, start>>PageShift; idx < end>>PageShift; si, idx = si+1, idx+1 {
		l, slot := as.leafLocked(idx, true)
		switch pg := l.pages[slot]; {
		case pg == nil:
			fresh := &slab[si]
			fresh.refs = 1
			fresh.zeroFill = true
			l.set(slot, fresh)
		case pg.Shared():
			l.pages[slot] = pg.copyForWrite()
		}
		l.markDirty(slot)
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
		child.vmas = append(child.vmas, &VMA{Start: v.Start, End: v.End, Prot: v.Prot})
	}
	child.leaves = make([]*ptLeaf, len(as.leaves))
	for i, l := range as.leaves {
		// The child starts with no dirty pages.
		nl := &ptLeaf{num: l.num, used: l.used, pages: l.pages}
		for _, pg := range nl.pages {
			if pg != nil {
				pg.Ref()
			}
		}
		child.leaves[i] = nl
	}
	return child
}

// Release drops all mappings (process exit).
func (as *AddressSpace) Release() {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, l := range as.leaves {
		for _, pg := range l.pages {
			if pg != nil {
				pg.Unref()
			}
		}
	}
	as.vmas = nil
	as.committed = 0
	as.leaves = nil
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
