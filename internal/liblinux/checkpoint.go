package liblinux

import (
	"bytes"
	"encoding/binary"
	"io"
	"sort"
	"time"

	"graphene/internal/api"
	"graphene/internal/host"
	"graphene/internal/ipc"
	"graphene/internal/monitor"
	"graphene/internal/pal"
)

// ckFD serializes one open descriptor. File-backed descriptors are
// reopened by path; stream-backed ones reference the i-th handle passed
// out-of-band over the initial stream (the handle-inheritance ABI, §5).
type ckFD struct {
	FD          int
	Kind        int
	Path        string
	Flags       int
	Pos         int64
	HandleIndex int // -1 for path-reopened descriptors
}

// ============================================================
// The checkpoint format (§5, §6.1). Fork, spawn and migration write one
// stream of typed sections — [kind:1][len:4][payload] — ending in secDone,
// and one reader, restore, consumes every image. Payloads are a fixed
// field order of varints and uvarint-length-prefixed strings (see each
// section's appendTo); the meta payload leads with ckptVersion.
//
// Fork streams the sections over the initial stream while a producer
// goroutine commits memory batches into the bulk-IPC store, and the child
// overlaps its restore: as soon as the memory section arrives it starts
// allocating regions and blocking on the store for batches (one batch per
// region, in section order) on a mapper goroutine, while the main restore
// path keeps consuming FD and signal sections (see DESIGN.md, "Fork
// pipeline"). Spawn sends the same sections minus memory and signals,
// which the child resets on exec anyway. Migration writes the sections
// into a byte image and adds the page contents in pages sections.
// ============================================================

// Section kinds.
const (
	secMeta   = 1 // ckMetaSection: identity, addresses, program, env
	secMemory = 2 // ckMemSection: brk + regions; fork's store batches follow 1:1
	secFDs    = 3 // ckFDSection: descriptor table; handles follow out-of-band
	secSig    = 4 // ckSigSection: signal dispositions
	secPages  = 5 // ckPagesSection: page contents (migration images only)
	secDone   = 6 // end of checkpoint
)

// maxSection bounds one section's payload so a forged length cannot make
// the reader allocate without limit; pagesPerSection keeps a pages section
// (4 KiB of data per page plus framing) well under it.
const (
	maxSection      = 64 << 20
	pagesPerSection = 1024
)

// ckptVersion is the first byte of every meta payload. The reader accepts
// only this version, so an image in any other layout — including the
// earlier gob-encoded format — is EINVAL rather than misread.
const ckptVersion = 1

// section is one section payload; appendTo encodes it at the end of b.
// Each section type also has a decode method that parses a whole payload
// and fails with EINVAL on a malformed field, a count the payload cannot
// hold, or a trailing byte.
type section interface {
	appendTo(b []byte) []byte
}

// ckMetaSection is the identity/dynamic-state section, captured fresh on
// every fork, spawn and migration.
type ckMetaSection struct {
	PID, PPID, PGID        int64
	ParentAddr, LeaderAddr string
	// ShardAddrs is the per-shard coordinator address table when the parent
	// runs on a sharded namespace plane (nil / single entry = classic
	// one-coordinator topology; the child then joins via LeaderAddr).
	ShardAddrs  []string
	ProgramPath string
	Argv        []string
	Cwd         string
	Env         map[string]string
}

// ckMemSection describes the memory image; fork sends the page contents
// out-of-band through the bulk-IPC store, one batch per region in order.
type ckMemSection struct {
	Brk, BrkEnd uint64
	Regions     []Region
}

type ckFDSection struct{ FDs []ckFD }

type ckSigSection struct{ Dispositions map[api.Signal]string }

// ckPagesSection carries page contents inline. Delta marks pages dirtied
// since the previous image: they apply over a restored base, so a delta
// image cannot boot a sandbox.
type ckPagesSection struct {
	Delta bool
	Pages []ckPage
}

type ckPage struct {
	Addr uint64
	Data []byte
}

// ============================================================
// Section codec. Integers are varints (uvarint where the value cannot be
// negative), strings and page data are uvarint length + bytes, and lists
// are a uvarint count + elements. Maps are written in ascending key order,
// so one state always encodes to the same image.
// ============================================================

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// ckDecoder parses one payload. The first malformed field poisons it: every
// later read returns a zero value, and done reports EINVAL.
type ckDecoder struct {
	b   []byte
	bad bool
}

func (d *ckDecoder) fail() {
	d.bad, d.b = true, nil
}

func (d *ckDecoder) byte() byte {
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *ckDecoder) bool() bool {
	switch d.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.fail()
	return false
}

func (d *ckDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *ckDecoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *ckDecoder) int() int { return int(d.varint()) }

// bytes returns the next length-prefixed field, aliasing the payload.
func (d *ckDecoder) bytes() []byte {
	n := d.uvarint()
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// string copies the next length-prefixed field out of the payload, so the
// payload buffer can be reused for the next section.
func (d *ckDecoder) string() string { return string(d.bytes()) }

// count reads a list length. Every element takes at least minSize bytes, so a
// count the remaining payload cannot hold fails here, before any
// allocation is sized by it.
func (d *ckDecoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minSize) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *ckDecoder) strings() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.string()
	}
	return out
}

// done reports whether the payload parsed cleanly and was consumed exactly.
func (d *ckDecoder) done() error {
	if d.bad || len(d.b) != 0 {
		return api.EINVAL
	}
	return nil
}

// Meta: [version:1] PID PPID PGID ParentAddr LeaderAddr ShardAddrs
// ProgramPath Argv Cwd Env, with Env as a count of key, value pairs.
func (m *ckMetaSection) appendTo(b []byte) []byte {
	b = append(b, ckptVersion)
	b = binary.AppendVarint(b, m.PID)
	b = binary.AppendVarint(b, m.PPID)
	b = binary.AppendVarint(b, m.PGID)
	b = appendString(b, m.ParentAddr)
	b = appendString(b, m.LeaderAddr)
	b = appendStrings(b, m.ShardAddrs)
	b = appendString(b, m.ProgramPath)
	b = appendStrings(b, m.Argv)
	b = appendString(b, m.Cwd)
	keys := make([]string, 0, len(m.Env))
	for k := range m.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(appendString(b, k), m.Env[k])
	}
	return b
}

func (m *ckMetaSection) decode(payload []byte) error {
	d := ckDecoder{b: payload}
	if d.byte() != ckptVersion {
		return api.EINVAL
	}
	*m = ckMetaSection{
		PID:         d.varint(),
		PPID:        d.varint(),
		PGID:        d.varint(),
		ParentAddr:  d.string(),
		LeaderAddr:  d.string(),
		ShardAddrs:  d.strings(),
		ProgramPath: d.string(),
		Argv:        d.strings(),
		Cwd:         d.string(),
	}
	if n := d.count(2); n > 0 {
		m.Env = make(map[string]string, n)
		prev := ""
		for i := 0; i < n; i++ {
			k := d.string()
			// Keys are written strictly ascending; anything else is forged.
			if i > 0 && k <= prev {
				d.fail()
			}
			m.Env[k], prev = d.string(), k
		}
	}
	return d.done()
}

// Memory: Brk BrkEnd, then a count of Start End Prot regions.
func (m *ckMemSection) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, m.Brk)
	b = binary.AppendUvarint(b, m.BrkEnd)
	b = binary.AppendUvarint(b, uint64(len(m.Regions)))
	for _, r := range m.Regions {
		b = binary.AppendUvarint(b, r.Start)
		b = binary.AppendUvarint(b, r.End)
		b = binary.AppendVarint(b, int64(r.Prot))
	}
	return b
}

func (m *ckMemSection) decode(payload []byte) error {
	d := ckDecoder{b: payload}
	*m = ckMemSection{Brk: d.uvarint(), BrkEnd: d.uvarint()}
	if n := d.count(3); n > 0 {
		m.Regions = make([]Region, n)
		for i := range m.Regions {
			m.Regions[i] = Region{Start: d.uvarint(), End: d.uvarint(), Prot: d.int()}
		}
	}
	return d.done()
}

// FDs: a count of FD Kind Path Flags Pos HandleIndex descriptors.
func (s *ckFDSection) appendTo(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(s.FDs)))
	for _, fc := range s.FDs {
		b = binary.AppendVarint(b, int64(fc.FD))
		b = binary.AppendVarint(b, int64(fc.Kind))
		b = appendString(b, fc.Path)
		b = binary.AppendVarint(b, int64(fc.Flags))
		b = binary.AppendVarint(b, fc.Pos)
		b = binary.AppendVarint(b, int64(fc.HandleIndex))
	}
	return b
}

func (s *ckFDSection) decode(payload []byte) error {
	d := ckDecoder{b: payload}
	*s = ckFDSection{}
	if n := d.count(6); n > 0 {
		s.FDs = make([]ckFD, n)
		for i := range s.FDs {
			s.FDs[i] = ckFD{FD: d.int(), Kind: d.int(), Path: d.string(), Flags: d.int(), Pos: d.varint(), HandleIndex: d.int()}
		}
	}
	return d.done()
}

// Signals: a count of signal, disposition pairs in ascending signal order.
func (s *ckSigSection) appendTo(b []byte) []byte {
	sigs := make([]api.Signal, 0, len(s.Dispositions))
	for sig := range s.Dispositions {
		sigs = append(sigs, sig)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	b = binary.AppendUvarint(b, uint64(len(sigs)))
	for _, sig := range sigs {
		b = appendString(binary.AppendVarint(b, int64(sig)), s.Dispositions[sig])
	}
	return b
}

func (s *ckSigSection) decode(payload []byte) error {
	d := ckDecoder{b: payload}
	*s = ckSigSection{}
	if n := d.count(2); n > 0 {
		s.Dispositions = make(map[api.Signal]string, n)
		var prev api.Signal
		for i := 0; i < n; i++ {
			sig := api.Signal(d.int())
			if i > 0 && sig <= prev {
				d.fail()
			}
			s.Dispositions[sig], prev = d.string(), sig
		}
	}
	return d.done()
}

// Pages: [delta:1], then a count of Addr, Data pairs.
func (s *ckPagesSection) appendTo(b []byte) []byte {
	delta := byte(0)
	if s.Delta {
		delta = 1
	}
	b = binary.AppendUvarint(append(b, delta), uint64(len(s.Pages)))
	for _, pg := range s.Pages {
		b = binary.AppendUvarint(b, pg.Addr)
		b = binary.AppendUvarint(b, uint64(len(pg.Data)))
		b = append(b, pg.Data...)
	}
	return b
}

// decode leaves each page's Data aliasing payload: restore writes the
// pages out before it reads the next section into the same buffer.
func (s *ckPagesSection) decode(payload []byte) error {
	d := ckDecoder{b: payload}
	*s = ckPagesSection{Delta: d.bool()}
	if n := d.count(2); n > 0 {
		s.Pages = make([]ckPage, n)
		for i := range s.Pages {
			s.Pages[i] = ckPage{Addr: d.uvarint(), Data: d.bytes()}
		}
	}
	return d.done()
}

// ckpt is a captured checkpoint: the sections every image shares, before
// the caller picks a destination and fills in the identity.
type ckpt struct {
	meta ckMetaSection
	mem  ckMemSection
	fds  ckFDSection
	sig  ckSigSection
}

// capture snapshots the libOS state; stream handles to be inherited are
// returned for out-of-band transfer.
func (p *Process) capture() (*ckpt, []*host.Handle) {
	ck := new(ckpt)
	p.mu.Lock()
	ck.meta = ckMetaSection{
		PGID:        p.pgid,
		ParentAddr:  p.helperAddr(),
		LeaderAddr:  p.leaderAddrLocked(),
		ShardAddrs:  p.shardAddrsLocked(),
		ProgramPath: p.programPath,
		Argv:        append([]string(nil), p.argv...),
		Cwd:         p.cwd,
		Env:         copyEnv(p.env),
	}
	p.mu.Unlock()

	p.mm.mu.Lock()
	ck.mem = ckMemSection{Brk: p.mm.brk, BrkEnd: p.mm.brkEnd, Regions: append([]Region(nil), p.mm.mmaps...)}
	p.mm.mu.Unlock()

	ck.sig.Dispositions = p.sig.dispositions()

	var handles []*host.Handle
	for fd, d := range p.fds.snapshot() {
		fc := ckFD{FD: fd, Kind: int(d.kind), Path: d.path, Flags: d.flags, HandleIndex: -1}
		d.mu.Lock()
		fc.Pos = d.pos
		d.mu.Unlock()
		switch d.kind {
		case fdPipe, fdSocket:
			fc.HandleIndex = len(handles)
			handles = append(handles, d.handle)
		case fdListener:
			// Listeners are not inherited (matching accept-after-fork
			// semantics would need handle duplication; servers accept in
			// the parent and pass connections instead).
			continue
		}
		ck.fds.FDs = append(ck.fds.FDs, fc)
	}
	return ck, handles
}

func (p *Process) helperAddr() string {
	if p.helper != nil {
		return p.helper.Addr
	}
	return ""
}

// shardAddrsLocked snapshots the parent helper's per-shard leader table
// for checkpoint capture; nil on the classic single-coordinator plane.
func (p *Process) shardAddrsLocked() []string {
	if p.helper != nil && p.helper.Shards() > 1 {
		return p.helper.ShardLeaderAddrs()
	}
	return nil
}

func (p *Process) leaderAddrLocked() string {
	if p.helper != nil {
		if a := p.helper.LeaderAddr(); a != "" {
			return a
		}
	}
	return p.leaderAddr
}

func copyEnv(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// appendSection encodes v (nil for an empty payload) as one section at the
// end of buf, in place: the length is patched in after the payload.
func appendSection(buf *bytes.Buffer, kind byte, v section) {
	b := append(buf.AvailableBuffer(), kind, 0, 0, 0, 0)
	if v != nil {
		b = v.appendTo(b)
	}
	binary.LittleEndian.PutUint32(b[1:], uint32(len(b)-5))
	buf.Write(b)
}

// readSection reads the next section from r into buf's storage, growing it
// only when the payload does not fit, and returns the payload.
func readSection(r io.Reader, buf []byte) (byte, []byte, error) {
	var hdr [5]byte
	if err := readFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxSection {
		return 0, nil, api.EINVAL
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if err := readFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// readFull fills buf from r. A host stream reports end of stream as a
// zero-byte read (EPIPE: the parent died mid-checkpoint); a byte image
// that ends early is truncated (EINVAL).
func readFull(r io.Reader, buf []byte) error {
	off := 0
	for off < len(buf) {
		n, err := r.Read(buf[off:])
		if err == io.EOF {
			return api.EINVAL
		}
		if err != nil {
			return err
		}
		if n == 0 {
			return api.EPIPE
		}
		off += n
	}
	return nil
}

// mapTimeout bounds how long the child waits for the parent to commit the
// next memory batch before declaring the fork dead.
const mapTimeout = 10 * time.Second

// mapImage allocates each region and, given a store, blocks on it for the
// region's batch — the consumer half of the fork pipeline, run on a
// goroutine while the main restore path consumes later sections.
func (p *Process) mapImage(store *host.Handle, regions []Region) error {
	for _, r := range regions {
		if _, err := p.pal.DkVirtualMemoryAlloc(r.Start, r.End-r.Start, r.Prot); err != nil {
			return err
		}
		if store == nil {
			continue
		}
		if _, err := p.pal.DkPhysicalMemoryMapWait(store, r.Start, mapTimeout); err != nil {
			return err
		}
	}
	return nil
}

// restoreChild runs in the freshly created picoprocess: it restores the
// checkpoint streamed on the initial stream, then joins the parent's
// namespace.
func restoreChild(rt *Runtime, c *pal.PAL, initial *host.Stream, store *host.Handle, childMain func(*Process) int) (*Process, error) {
	child, meta, err := rt.restore(c, initial, initial, store)
	if err != nil {
		return nil, err
	}
	var helper *ipc.Helper
	if len(meta.ShardAddrs) > 1 {
		helper, err = ipc.NewShardMember(c, child.svc(), meta.PID, meta.ShardAddrs)
	} else {
		helper, err = ipc.NewMember(c, child.svc(), meta.PID, meta.LeaderAddr)
	}
	if err != nil {
		return nil, err
	}
	child.helper = helper
	child.childMain = childMain
	// A forked child inherits its parent's process group.
	if meta.PGID != 0 {
		child.mu.Lock()
		child.pgid = meta.PGID
		child.mu.Unlock()
		_ = helper.JoinGroup(meta.PGID, meta.PID)
	}
	return child, nil
}

// restore consumes one checkpoint image from r and rebuilds its libOS
// state in a new process on c, applying each section as it arrives.
// initial carries the inherited stream handles (nil for a migration
// image) and store fork's memory batches (nil for spawn and migration).
// Every section is checked before it is applied: a forged image fails
// with an errno, never a panic.
func (rt *Runtime) restore(c *pal.PAL, r io.Reader, initial *host.Stream, store *host.Handle) (*Process, *ckMetaSection, error) {
	kind, payload, err := readSection(r, nil)
	if err != nil {
		return nil, nil, err
	}
	if kind != secMeta {
		return nil, nil, api.EINVAL
	}
	var meta ckMetaSection
	if err := meta.decode(payload); err != nil {
		return nil, nil, err
	}
	if initial == nil {
		// A migration image boots a sandbox root: whatever it says, there
		// is no parent to notify and no namespace to join.
		meta.PPID, meta.PGID, meta.ParentAddr, meta.LeaderAddr, meta.ShardAddrs = 0, 0, "", "", nil
	}
	p, err := newProcess(rt, c, meta.PID, meta.PPID, meta.ParentAddr, meta.LeaderAddr)
	if err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	p.cwd = meta.Cwd
	p.env = copyEnv(meta.Env)
	p.programPath = meta.ProgramPath
	p.argv = append([]string(nil), meta.Argv...)
	p.mu.Unlock()

	mapDone := make(chan error, 1)
	mapStarted := false
	// failMap releases the pipeline when the restore dies after the mapper
	// goroutine has started: closing the store unblocks its MapNext wait
	// and drops the queued batches' page references, and draining mapDone
	// reaps the goroutine — otherwise it would keep allocating regions and
	// blocking up to mapTimeout per region inside an abandoned child.
	failMap := func(err error) (*Process, *ckMetaSection, error) {
		if mapStarted {
			_ = c.DkObjectClose(store)
			<-mapDone
		}
		return nil, nil, err
	}
	var seen [secDone + 1]bool
	for done := false; !done; {
		// Decoded sections own their strings, so each read reuses the
		// previous section's buffer.
		kind, payload, err = readSection(r, payload)
		if err != nil {
			return failMap(err)
		}
		// Only pages sections may repeat; meta comes first and only once.
		if kind <= secMeta || kind > secDone || (seen[kind] && kind != secPages) {
			return failMap(api.EINVAL)
		}
		seen[kind] = true
		switch kind {
		case secMemory:
			var mem ckMemSection
			if err := mem.decode(payload); err != nil {
				return failMap(err)
			}
			regions := memRegions(mem.BrkEnd, mem.Regions)
			if !validLayout(&mem, regions) {
				return failMap(api.EINVAL)
			}
			p.mm.restore(mem.Brk, mem.BrkEnd, mem.Regions)
			if store == nil {
				// A migration image: map the regions now for the pages
				// sections to fill.
				if err := p.mapImage(nil, regions); err != nil {
					return failMap(err)
				}
			} else {
				mapStarted = true
				go func() { mapDone <- p.mapImage(store, regions) }()
			}
		case secFDs:
			var fds ckFDSection
			if err := fds.decode(payload); err != nil {
				return failMap(err)
			}
			if err := p.restoreFDs(fds.FDs, initial); err != nil {
				return failMap(err)
			}
		case secSig:
			var sig ckSigSection
			if err := sig.decode(payload); err != nil {
				return failMap(err)
			}
			p.sig.restoreDispositions(sig.Dispositions)
		case secPages:
			var pages ckPagesSection
			if err := pages.decode(payload); err != nil {
				return failMap(err)
			}
			// Fork ships pages through the store, and a delta applies over
			// a restored base: neither can carry pages here.
			if initial != nil || pages.Delta {
				return failMap(api.EINVAL)
			}
			for _, pg := range pages.Pages {
				if err := c.MemWrite(pg.Addr, pg.Data); err != nil {
					return failMap(err)
				}
			}
		case secDone:
			if len(payload) != 0 {
				return failMap(api.EINVAL)
			}
			done = true
		}
	}
	if mapStarted {
		if err := <-mapDone; err != nil {
			// Batches the parent committed past the failure point hold page
			// references nobody will map; close the store to release them.
			_ = c.DkObjectClose(store)
			return nil, nil, err
		}
	}
	return p, &meta, nil
}

// validLayout reports whether a memory section keeps the break inside the
// data segment and describes only non-empty, page-aligned regions.
func validLayout(mem *ckMemSection, regions []Region) bool {
	if mem.Brk < brkBase || mem.Brk > mem.BrkEnd || mem.BrkEnd > brkMax {
		return false
	}
	for _, r := range regions {
		if r.Start >= r.End || r.Start%host.PageSize != 0 || r.End%host.PageSize != 0 {
			return false
		}
	}
	return true
}

// memRegions lists the memory areas of a checkpoint: the break segment
// plus the anonymous mappings.
func memRegions(brkEnd uint64, mmaps []Region) []Region {
	var out []Region
	if brkEnd > brkBase {
		out = append(out, Region{Start: brkBase, End: brkEnd, Prot: api.ProtRead | api.ProtWrite})
	}
	return append(out, mmaps...)
}

// restoreFDs receives inherited stream handles in order and rebuilds the
// descriptor table.
func (p *Process) restoreFDs(fds []ckFD, initial *host.Stream) error {
	maxIdx := -1
	for _, fc := range fds {
		// Stream descriptors, and only they, name one of the handles that
		// follow out-of-band, numbered densely from 0.
		kind := fdKind(fc.Kind)
		stream := kind == fdPipe || kind == fdSocket
		if fc.FD < 0 || kind < fdFile || kind > fdProc || kind == fdListener ||
			stream != (fc.HandleIndex >= 0) || fc.HandleIndex >= len(fds) {
			return api.EINVAL
		}
		if fc.HandleIndex > maxIdx {
			maxIdx = fc.HandleIndex
		}
	}
	if maxIdx >= 0 && initial == nil {
		return api.EINVAL // handles referenced, but no stream carries them
	}
	inherited := make([]*host.Handle, maxIdx+1)
	for i := 0; i <= maxIdx; i++ {
		h, err := initial.ReceiveHandle()
		if err != nil {
			return err
		}
		if h.Kind == host.HandleStream {
			// The sender transferred a reference with the handle; adopt
			// the endpoint into this picoprocess.
			p.pal.Kernel().AdoptStream(p.pal.Proc(), h.Stream)
		}
		inherited[i] = h
	}

	for _, fc := range fds {
		d := &fdesc{kind: fdKind(fc.Kind), path: fc.Path, flags: fc.Flags, pos: fc.Pos}
		switch d.kind {
		case fdFile:
			h, err := p.pal.DkStreamOpen("file:"+fc.Path, fc.Flags&^(api.OTrunc|api.OExcl|api.OCreate), 0)
			if err != nil {
				continue // file vanished; descriptor dropped
			}
			d.handle = h
		case fdPipe, fdSocket:
			d.handle = inherited[fc.HandleIndex]
		case fdTTY:
			h, err := p.pal.DkStreamOpen("dev:tty", 0, 0)
			if err != nil {
				continue
			}
			d.handle = h
		case fdProc:
			data, err := p.procRead(fc.Path)
			if err != nil {
				continue
			}
			d.data = data
		}
		p.fds.install(fc.FD, d)
	}
	return nil
}

// ============================================================
// Migration checkpoints (§6.1): checkpoint to bytes, resume anywhere.
// ============================================================

// CheckpointToBytes produces a self-contained migration image: the
// checkpoint sections plus all resident memory pages. "Little more than a
// guest memory dump" (§7.3).
func (p *Process) CheckpointToBytes() ([]byte, error) {
	return p.checkpointBytes(false), nil
}

// CheckpointDeltaBytes produces an incremental migration image: the same
// sections, but only pages dirtied since the last CheckpointToBytes or
// CheckpointDeltaBytes call. Checkpoint cost therefore scales with the
// write working set, not the resident set — the dirty-fraction sweep in
// the benchmarks measures exactly this. The image applies over a restored
// base; it is not self-contained.
func (p *Process) CheckpointDeltaBytes() ([]byte, error) {
	return p.checkpointBytes(true), nil
}

// checkpointBytes writes a migration image: the sections fork sends, less
// the stream-backed descriptors (streams cannot migrate across machines),
// then the pages — every resident one, or for a delta the dirty ones.
func (p *Process) checkpointBytes(delta bool) []byte {
	ck, _ := p.capture()
	ck.meta.PID, ck.meta.PPID = p.pid, p.ppid
	kept := ck.fds.FDs[:0]
	for _, fc := range ck.fds.FDs {
		if fc.HandleIndex == -1 {
			kept = append(kept, fc)
		}
	}
	ck.fds.FDs = kept

	var buf bytes.Buffer
	appendSection(&buf, secMeta, &ck.meta)
	appendSection(&buf, secMemory, &ck.mem)
	appendSection(&buf, secFDs, &ck.fds)
	appendSection(&buf, secSig, &ck.sig)
	as := p.pal.Proc().AS
	pages := ckPagesSection{Delta: delta}
	for _, r := range memRegions(ck.mem.BrkEnd, ck.mem.Regions) {
		var idxs []uint64
		if delta {
			idxs, _ = as.DirtyPages(r.Start, r.End)
		} else {
			idxs, _ = as.TouchedPages(r.Start, r.End)
		}
		for _, idx := range idxs {
			data := make([]byte, host.PageSize)
			if err := as.Read(idx<<host.PageShift, data); err != nil {
				continue
			}
			pages.Pages = append(pages.Pages, ckPage{Addr: idx << host.PageShift, Data: data})
			if len(pages.Pages) == pagesPerSection {
				appendPages(&buf, &pages)
			}
		}
	}
	// The last pages section goes out even when empty, so that a delta
	// always carries its flag.
	appendPages(&buf, &pages)
	appendSection(&buf, secDone, nil)
	// Every image is the baseline for the next delta.
	as.ResetDirty()
	return buf.Bytes()
}

// appendPages writes one pages section and empties it for the next batch.
// The image grows once to fit the section, so encoding it copies each page
// only once.
func appendPages(buf *bytes.Buffer, pages *ckPagesSection) {
	buf.Grow(16 + len(pages.Pages)*(host.PageSize+2*binary.MaxVarintLen64))
	appendSection(buf, secPages, pages)
	pages.Pages = pages.Pages[:0]
}

// ResumeFromBytes reconstructs a checkpointed process as the root of a
// fresh sandbox on this runtime — the receive side of migration. The
// resumed program is re-entered from the top with a RESUMED=1 environment
// marker (Go stacks cannot be serialized; see DESIGN.md).
func (r *Runtime) ResumeFromBytes(man *monitor.Manifest, blob []byte) (*LaunchResult, error) {
	proc, _, err := r.mon.Launch(man)
	if err != nil {
		return nil, err
	}
	c := pal.New(r.kernel, proc, r.mon)
	lib, meta, err := r.restore(c, bytes.NewReader(blob), nil, nil)
	if err != nil {
		proc.Exit(127)
		return nil, err
	}
	prog, ok := r.lookupProgram(meta.ProgramPath)
	if !ok {
		proc.Exit(127)
		return nil, api.ENOENT
	}
	helper, err := ipc.NewLeader(c, lib.svc(), meta.PID)
	if err != nil {
		proc.Exit(127)
		return nil, err
	}
	lib.helper = helper
	lib.Setenv("RESUMED", "1")

	res := &LaunchResult{Process: lib, Done: make(chan struct{})}
	proc.NewThread(func(tid int) {
		code := lib.runProgram(prog, meta.ProgramPath, meta.Argv)
		lib.doExit(code, 0)
		res.exitCode = lib.exitCode
		close(res.Done)
	})
	return res, nil
}

// Poll waits until one of the descriptors is readable, returning its
// index — the libOS's select/poll (LMbench's "select tcp" row).
func (p *Process) Poll(fds []int, timeoutMicros int64) (int, error) {
	handles := make([]*host.Handle, 0, len(fds))
	for _, fd := range fds {
		d, ok := p.fds.get(fd)
		if !ok || d.handle == nil {
			return -1, api.EBADF
		}
		handles = append(handles, d.handle)
	}
	timeout := time.Duration(timeoutMicros) * time.Microsecond
	return p.pal.DkObjectsWaitAny(handles, timeout)
}
