package host

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"graphene/internal/api"
)

func TestAllocAndReadWrite(t *testing.T) {
	as := NewAddressSpace()
	addr, err := as.Alloc(0, 3*PageSize, api.ProtRead|api.ProtWrite)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	data := []byte("hello, picoprocess")
	if err := as.Write(addr+100, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(addr+100, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("round trip: got %q want %q", buf, data)
	}
}

func TestAllocFixedAddress(t *testing.T) {
	as := NewAddressSpace()
	const want = uint64(0x1000_0000)
	got, err := as.Alloc(want, PageSize, api.ProtRead)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if got != want {
		t.Fatalf("Alloc addr = %#x, want %#x", got, want)
	}
	if _, err := as.Alloc(want, PageSize, api.ProtRead); err != api.ENOMEM {
		t.Fatalf("overlapping Alloc err = %v, want ENOMEM", err)
	}
}

func TestAllocZeroLength(t *testing.T) {
	as := NewAddressSpace()
	if _, err := as.Alloc(0, 0, api.ProtRead); err != api.EINVAL {
		t.Fatalf("err = %v, want EINVAL", err)
	}
}

// A range whose end wraps past the top of the address space is rejected,
// and leaves the mappings and the committed count untouched.
func TestAllocFreeRejectWrapAround(t *testing.T) {
	as := NewAddressSpace()
	addr, err := as.Alloc(0x1000_0000, PageSize, api.ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ addr, length uint64 }{
		{addr, PageSize - addr}, // end wraps to below addr
		{1 << 63, 1 << 63},      // end wraps to exactly 0
		{0, ^uint64(0)},         // page rounding wraps
		{^uint64(0) - 10, 1},    // last page: rounding wraps
	} {
		if _, err := as.Alloc(c.addr, c.length, api.ProtRead); err != api.EINVAL {
			t.Errorf("Alloc(%#x, %#x) err = %v, want EINVAL", c.addr, c.length, err)
		}
		if err := as.Free(c.addr, c.length); err != api.EINVAL {
			t.Errorf("Free(%#x, %#x) err = %v, want EINVAL", c.addr, c.length, err)
		}
	}
	if got := as.CommittedBytes(); got != PageSize {
		t.Fatalf("committed = %d, want %d", got, PageSize)
	}
	if !as.Mapped(addr) {
		t.Fatal("valid mapping lost")
	}
}

func TestReadUnmappedFaults(t *testing.T) {
	as := NewAddressSpace()
	if err := as.Read(0xdead000, make([]byte, 8)); err != api.EFAULT {
		t.Fatalf("err = %v, want EFAULT", err)
	}
	if err := as.Write(0xdead000, []byte{1}); err != api.EFAULT {
		t.Fatalf("err = %v, want EFAULT", err)
	}
}

func TestUntouchedPagesReadZero(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	buf := []byte{0xff, 0xff, 0xff}
	if err := as.Read(addr, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestWriteSpansPages(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 4*PageSize, api.ProtRead|api.ProtWrite)
	data := make([]byte, 2*PageSize+17)
	for i := range data {
		data[i] = byte(i)
	}
	start := addr + PageSize - 9 // straddle boundaries
	if err := as.Write(start, data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, len(data))
	if err := as.Read(start, buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("multi-page round trip mismatch")
	}
}

func TestProtectEnforced(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 2*PageSize, api.ProtRead|api.ProtWrite)
	if err := as.Protect(addr, PageSize, api.ProtRead); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if err := as.Write(addr, []byte{1}); err != api.EACCES {
		t.Fatalf("write to RO page err = %v, want EACCES", err)
	}
	// Second page stayed writable.
	if err := as.Write(addr+PageSize, []byte{1}); err != nil {
		t.Fatalf("write to RW page: %v", err)
	}
	// Unmapped hole cannot be protected.
	if err := as.Protect(addr+8*PageSize, PageSize, api.ProtRead); err != api.ENOMEM {
		t.Fatalf("Protect hole err = %v, want ENOMEM", err)
	}
}

func TestProtectPreservesContents(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 2*PageSize, api.ProtRead|api.ProtWrite)
	if err := as.Write(addr, []byte("persist")); err != nil {
		t.Fatal(err)
	}
	if err := as.Protect(addr, PageSize, api.ProtRead); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if err := as.Read(addr, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "persist" {
		t.Fatalf("contents lost across Protect: %q", buf)
	}
}

func TestFreeSplitsVMA(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 4*PageSize, api.ProtRead|api.ProtWrite)
	if err := as.Write(addr, []byte("head")); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(addr+3*PageSize, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := as.Free(addr+PageSize, 2*PageSize); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if as.Mapped(addr + PageSize) {
		t.Fatal("freed page still mapped")
	}
	buf := make([]byte, 4)
	if err := as.Read(addr, buf); err != nil || string(buf) != "head" {
		t.Fatalf("head lost: %q, %v", buf, err)
	}
	if err := as.Read(addr+3*PageSize, buf); err != nil || string(buf) != "tail" {
		t.Fatalf("tail lost: %q, %v", buf, err)
	}
}

func TestCommittedAccounting(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 10*PageSize, api.ProtRead|api.ProtWrite)
	if got := as.CommittedBytes(); got != 10*PageSize {
		t.Fatalf("committed = %d, want %d", got, 10*PageSize)
	}
	if err := as.Free(addr, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	if got := as.CommittedBytes(); got != 6*PageSize {
		t.Fatalf("committed after free = %d, want %d", got, 6*PageSize)
	}
}

func TestResidentOnlyCountsTouched(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 100*PageSize, api.ProtRead|api.ProtWrite)
	if got := as.ResidentBytes(); got != 0 {
		t.Fatalf("resident before touch = %d, want 0", got)
	}
	if err := as.Write(addr+5*PageSize, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if got := as.ResidentBytes(); got != PageSize {
		t.Fatalf("resident after one touch = %d, want %d", got, PageSize)
	}
}

func TestCOWSharingViaInstallPage(t *testing.T) {
	parent := NewAddressSpace()
	addr, _ := parent.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	if err := parent.Write(addr, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	idxs, pages := parent.TouchedPages(addr, addr+PageSize)
	if len(pages) != 1 {
		t.Fatalf("touched pages = %d, want 1", len(pages))
	}

	child := NewAddressSpace()
	if _, err := child.Alloc(addr, PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := child.InstallPage(idxs[0], pages[0]); err != nil {
		t.Fatalf("InstallPage: %v", err)
	}

	buf := make([]byte, 6)
	if err := child.Read(addr, buf); err != nil || string(buf) != "shared" {
		t.Fatalf("child read: %q, %v", buf, err)
	}

	// Child write must not be visible to the parent (COW break).
	if err := child.Write(addr, []byte("CHANGE")); err != nil {
		t.Fatal(err)
	}
	if err := parent.Read(addr, buf); err != nil || string(buf) != "shared" {
		t.Fatalf("parent saw child's write: %q, %v", buf, err)
	}
	if err := child.Read(addr, buf); err != nil || string(buf) != "CHANGE" {
		t.Fatalf("child lost its write: %q, %v", buf, err)
	}
}

func TestParentWriteAfterShareBreaksCOW(t *testing.T) {
	parent := NewAddressSpace()
	addr, _ := parent.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	if err := parent.Write(addr, []byte("before")); err != nil {
		t.Fatal(err)
	}
	idxs, pages := parent.TouchedPages(addr, addr+PageSize)
	child := NewAddressSpace()
	if _, err := child.Alloc(addr, PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := child.InstallPage(idxs[0], pages[0]); err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(addr, []byte("parent")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if err := child.Read(addr, buf); err != nil || string(buf) != "before" {
		t.Fatalf("child saw parent's post-share write: %q, %v", buf, err)
	}
}

func TestSharedPageResidentChargedFractionally(t *testing.T) {
	parent := NewAddressSpace()
	addr, _ := parent.Alloc(0, PageSize, api.ProtRead|api.ProtWrite)
	if err := parent.Write(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	idxs, pages := parent.TouchedPages(addr, addr+PageSize)
	child := NewAddressSpace()
	if _, err := child.Alloc(addr, PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := child.InstallPage(idxs[0], pages[0]); err != nil {
		t.Fatal(err)
	}
	// Page now has two references: each space is charged half.
	if got := parent.ResidentBytes() + child.ResidentBytes(); got != PageSize {
		t.Fatalf("combined resident = %d, want %d", got, PageSize)
	}
}

func TestReleaseDropsEverything(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 4*PageSize, api.ProtRead|api.ProtWrite)
	if err := as.Write(addr, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	as.Release()
	if as.CommittedBytes() != 0 || as.ResidentBytes() != 0 {
		t.Fatal("Release left accounting nonzero")
	}
	if as.Mapped(addr) {
		t.Fatal("Release left mapping")
	}
}

// Property: for any sequence of in-bounds writes, reading back each write's
// range returns the last bytes written there.
func TestPropertyWriteReadRoundTrip(t *testing.T) {
	f := func(offsets []uint16, payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{42}
		}
		as := NewAddressSpace()
		base, err := as.Alloc(0, 64*PageSize, api.ProtRead|api.ProtWrite)
		if err != nil {
			return false
		}
		type write struct {
			addr uint64
			data []byte
		}
		var last []write
		for i, off := range offsets {
			addr := base + uint64(off)
			data := payload[:1+i%len(payload)]
			if err := as.Write(addr, data); err != nil {
				return false
			}
			last = append(last, write{addr, append([]byte(nil), data...)})
		}
		// Verify the final write (earlier ones may be overwritten).
		if len(last) > 0 {
			w := last[len(last)-1]
			buf := make([]byte, len(w.data))
			if err := as.Read(w.addr, buf); err != nil {
				return false
			}
			if !bytes.Equal(buf, w.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: committed accounting is invariant under alloc/free pairs.
func TestPropertyAllocFreeAccounting(t *testing.T) {
	f := func(sizes []uint8) bool {
		as := NewAddressSpace()
		var addrs []uint64
		var lens []uint64
		for _, s := range sizes {
			length := uint64(s%16+1) * PageSize
			a, err := as.Alloc(0, length, api.ProtRead)
			if err != nil {
				return false
			}
			addrs = append(addrs, a)
			lens = append(lens, length)
		}
		for i, a := range addrs {
			if err := as.Free(a, lens[i]); err != nil {
				return false
			}
		}
		return as.CommittedBytes() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A mapping costs page-table memory only where it is touched: one page
// written inside a 1 TiB mapping allocates one leaf, and freeing the
// mapping drops it.
func TestHugeSparseMappingAllocatesOneLeaf(t *testing.T) {
	as := NewAddressSpace()
	const base, size = uint64(0x1000_0000_0000), uint64(1) << 40
	if _, err := as.Alloc(base, size, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	if err := as.Write(base+size/2+123, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if n := len(as.leaves); n != 1 {
		t.Fatalf("leaves = %d, want 1", n)
	}
	if got := as.ResidentBytes(); got != PageSize {
		t.Fatalf("resident = %d, want %d", got, PageSize)
	}
	if err := as.Free(base, size); err != nil {
		t.Fatal(err)
	}
	if n := len(as.leaves); n != 0 {
		t.Fatalf("leaves after Free = %d, want 0", n)
	}
}

// Splitting a VMA, by Protect or by Free, keeps the contents and the dirty
// bits of the pages that survive it.
func TestSplitKeepsContentsAndDirtyBits(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 6*PageSize, api.ProtRead|api.ProtWrite)
	for i := uint64(0); i < 6; i++ {
		if err := as.Write(addr+i*PageSize, []byte{byte('a' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	as.ResetDirty()
	for _, i := range []uint64{0, 2, 5} {
		if err := as.Write(addr+i*PageSize+1, []byte{'!'}); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Protect(addr+2*PageSize, PageSize, api.ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := as.Free(addr+3*PageSize, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	for _, i := range []uint64{0, 1, 2, 5} {
		buf := make([]byte, 1)
		if err := as.Read(addr+i*PageSize, buf); err != nil || buf[0] != byte('a'+i) {
			t.Fatalf("page %d after split = %q, %v", i, buf, err)
		}
	}
	base := addr >> PageShift
	idxs, _ := as.DirtyPages(addr, addr+6*PageSize)
	if want := []uint64{base, base + 2, base + 5}; !slices.Equal(idxs, want) {
		t.Fatalf("dirty pages = %v, want %v", idxs, want)
	}
}

// TouchedPages and DirtyPages list pages in ascending address order,
// whatever order they were written in and however many leaves they span.
func TestPageListsAscending(t *testing.T) {
	as := NewAddressSpace()
	const n = 3 * leafPages
	addr, _ := as.Alloc(0, n*PageSize, api.ProtRead|api.ProtWrite)
	var want []uint64
	for i := uint64(0); i < n; i += 97 {
		want = append(want, addr>>PageShift+i)
	}
	for i := len(want) - 1; i >= 0; i-- {
		if err := as.Write(want[i]<<PageShift, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	touched, _ := as.TouchedPages(addr, addr+n*PageSize)
	dirty, _ := as.DirtyPages(addr, addr+n*PageSize)
	if !slices.Equal(touched, want) || !slices.Equal(dirty, want) {
		t.Fatalf("touched = %v\ndirty = %v\nwant %v", touched, dirty, want)
	}
}

// Free clears the dirty bits of its range: a page mapped again at a freed
// address is neither dirty nor resident until it is written.
func TestFreeClearsDirtyBits(t *testing.T) {
	as := NewAddressSpace()
	addr, _ := as.Alloc(0, 4*PageSize, api.ProtRead|api.ProtWrite)
	for i := uint64(0); i < 4; i++ {
		if err := as.Write(addr+i*PageSize, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Free(addr+PageSize, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := as.Alloc(addr+PageSize, 2*PageSize, api.ProtRead|api.ProtWrite); err != nil {
		t.Fatal(err)
	}
	base := addr >> PageShift
	dirty, _ := as.DirtyPages(addr, addr+4*PageSize)
	if want := []uint64{base, base + 3}; !slices.Equal(dirty, want) {
		t.Fatalf("dirty pages = %v, want %v", dirty, want)
	}
	if touched, _ := as.TouchedPages(addr+PageSize, addr+3*PageSize); len(touched) != 0 {
		t.Fatalf("freed pages still resident: %v", touched)
	}
}
