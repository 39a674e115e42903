package ipc

import (
	"encoding/binary"
	"fmt"
	"sync"

	"graphene/internal/api"
)

// idRange is a batch of identifiers handed by the leader to one helper,
// which then allocates from it without further leader involvement (§4.3,
// "Batched allocation of names minimizes leader workload").
type idRange struct {
	lo, hi int64 // inclusive
	owner  string
}

// keyEntry maps a System V key to its ID and owning helper.
type keyEntry struct {
	id    int64
	owner string
}

// keyBlockSize is how many consecutive System V keys one block lease
// covers. Applications name related IPC objects with clustered keys
// (ftok over the same file, a base key plus a small index), so leasing a
// whole block on the first create amortizes the leader round trip the
// same way PID batches amortize fork (§4.3).
const keyBlockSize = 64

// keyLeaseRequest is OR'd into MsgKeyGet's flags word by a requester
// willing to take a block lease. It lives far above the guest ipc flags
// (IPCCreat/IPCExcl/IPCNoWait occupy the low 12 bits).
const keyLeaseRequest = 1 << 30

// MsgKeyGet response codes (Frame.B).
const (
	keyRespDirect   = 0 // A=id, S=owner: authoritative answer
	keyRespIndirect = 1 // S=lease holder: re-ask that helper
	keyRespLeased   = 2 // as direct, plus block C is now leased to the requester
)

// keyBlock maps a key to its lease block (floor division, so negative
// keys land in well-defined blocks too).
func keyBlock(key int64) int64 {
	b := key / keyBlockSize
	if key%keyBlockSize != 0 && key < 0 {
		b--
	}
	return b
}

// ownerEntry records who owns a System V object plus the migration epoch
// under which they claimed it. Each ownership transfer increments the
// epoch, and the leader ignores a chown carrying a lower epoch than the
// recorded one: two migrations racing in opposite directions (an eviction
// toward the leader crossing the leader's own consumer migration) commit
// their chowns in nondeterministic order, and without the guard the loser
// can leave the authoritative map pointing at a dead helper forever.
type ownerEntry struct {
	addr  string
	epoch int64
}

// leaderState is the sandbox leader's namespace bookkeeping: ID ranges per
// namespace kind, System V key mappings, and object ownership.
type leaderState struct {
	mu     sync.RWMutex
	ranges map[int][]idRange
	next   map[int]int64
	keys   map[int]map[int64]keyEntry   // kind -> key -> entry
	owners map[int]map[int64]ownerEntry // kind -> id -> owner
	leases map[int]map[int64]string     // kind -> key block -> holder address
	// removed tombstones destroyed object IDs. A lazy key registration
	// from a lease holder can arrive after the object's removal (the two
	// travel on different streams), and without the tombstone it would
	// resurrect the key mapping. IDs are allocated monotonically and never
	// reused, so a tombstone stays valid forever; the set grows by one
	// int64 per destroyed object, which is fine at sandbox scale.
	removed map[int]map[int64]struct{} // kind -> id
	// departed marks member addresses that said a graceful MsgBye (never
	// reap them: their objects were persisted or migrated) or that were
	// already reaped (reap once per address).
	departed map[string]struct{}
	pgs      *pgroupState
	// shard/nshards place this leaderState in a sharded plane: its
	// allocation cursors only ever mint IDs from slabs where
	// slab%nshards == shard (see alignCursorLocked). The classic
	// single-coordinator plane is shard 0 of 1.
	shard   int
	nshards int
}

func newLeaderState() *leaderState {
	return newLeaderStateShard(0, 1)
}

func newLeaderStateShard(shard, nshards int) *leaderState {
	l := &leaderState{
		ranges:   make(map[int][]idRange),
		next:     map[int]int64{NSPid: 1, NSSysVMsg: 1, NSSysVSem: 1},
		keys:     map[int]map[int64]keyEntry{NSSysVMsg: {}, NSSysVSem: {}},
		owners:   map[int]map[int64]ownerEntry{NSSysVMsg: {}, NSSysVSem: {}},
		leases:   map[int]map[int64]string{NSSysVMsg: {}, NSSysVSem: {}},
		removed:  map[int]map[int64]struct{}{NSSysVMsg: {}, NSSysVSem: {}},
		departed: make(map[string]struct{}),
		pgs:      newPgroupState(),
		shard:    shard,
		nshards:  nshards,
	}
	for _, kind := range []int{NSPid, NSSysVMsg, NSSysVSem} {
		l.alignCursorLocked(kind, 1)
	}
	return l
}

// alignCursorLocked moves the cursor of one namespace kind to the start
// of this shard's next owned slab when the cursor sits in a foreign slab
// or an n-wide grant would cross out of the current one. A no-op in the
// 1-shard plane and whenever the grant fits inside an owned slab — the
// common case, so sharding costs the allocator nothing per grant. Caller
// holds l.mu (or owns l exclusively during construction).
func (l *leaderState) alignCursorLocked(kind int, n int64) {
	if l.nshards <= 1 {
		return
	}
	next := l.next[kind]
	if next < 1 {
		next = 1
	}
	slab := (next - 1) / slabWidth
	owned := int(slab%int64(l.nshards)) == l.shard
	fits := next+n-1 <= (slab+1)*slabWidth
	if owned && fits {
		return
	}
	s := slab + 1
	for int(s%int64(l.nshards)) != l.shard {
		s++
	}
	l.next[kind] = s*slabWidth + 1
}

// cursor reports the next unallocated ID of the given kind.
func (l *leaderState) cursor(kind int) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.next[kind]
}

// allocRange hands out a fresh batch of n IDs of the given kind to owner.
func (l *leaderState) allocRange(kind int, n int64, owner string) (lo, hi int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.alignCursorLocked(kind, n)
	lo = l.next[kind]
	hi = lo + n - 1
	l.next[kind] = hi + 1
	l.ranges[kind] = append(l.ranges[kind], idRange{lo: lo, hi: hi, owner: owner})
	return lo, hi
}

// coveredLocked reports whether id falls inside any granted or claimed
// range of the given kind. Caller holds l.mu.
func (l *leaderState) coveredLocked(kind int, id int64) bool {
	for _, r := range l.ranges[kind] {
		if id >= r.lo && id <= r.hi {
			return true
		}
	}
	return false
}

// claimRange reserves a single ID some helper already holds — an adopted,
// restored, or externally assigned process PID — so the allocator never
// hands it out again: the claim is recorded as a one-ID range (unless an
// existing range already covers it) and the cursor advances past it.
// Batches granted to other helpers before the claim are not recalled; a
// claim is expected at join time, before the ID's neighborhood has been
// handed out.
func (l *leaderState) claimRange(kind int, id int64, owner string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.coveredLocked(kind, id) {
		l.ranges[kind] = append(l.ranges[kind], idRange{lo: id, hi: id, owner: owner})
	}
	if id >= l.next[kind] {
		l.next[kind] = id + 1
	}
}

// rangeOwner returns the helper owning the batch containing id.
func (l *leaderState) rangeOwner(kind int, id int64) (string, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, r := range l.ranges[kind] {
		if id >= r.lo && id <= r.hi {
			return r.owner, true
		}
	}
	return "", false
}

// keyResult is the outcome of a key resolution at the leader.
type keyResult struct {
	id    int64
	owner string
	// indirect, when non-empty, names the lease holder authoritative for
	// the key's block; the requester must re-ask that helper.
	indirect string
	// leased reports that block was just granted to the requester.
	leased bool
	block  int64
	// seed carries the block's keys already registered at the leader when
	// the lease was granted (leader-created, flushed by a prior holder on
	// shutdown, or created while leasing was toggled off). The grantee's
	// cache becomes authoritative for the whole block, so it must start
	// out holding every registered mapping — otherwise a lookup of such a
	// key would answer ENOENT and a create would mint a second live ID for
	// a key the leader still maps to the old one (split brain).
	seed []seedKeyEntry
}

// seedKeyEntry is one (key, id, owner) mapping shipped with a lease grant.
type seedKeyEntry struct {
	key, id int64
	owner   string
}

// encodeKeySeed serializes lease-grant seed entries into a frame blob.
func encodeKeySeed(seed []seedKeyEntry) []byte {
	if len(seed) == 0 {
		return nil
	}
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(seed)))
	for _, e := range seed {
		out = binary.LittleEndian.AppendUint64(out, uint64(e.key))
		out = binary.LittleEndian.AppendUint64(out, uint64(e.id))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(e.owner)))
		out = append(out, e.owner...)
	}
	return out
}

func decodeKeySeed(blob []byte) ([]seedKeyEntry, error) {
	if len(blob) == 0 {
		return nil, nil
	}
	if len(blob) < 4 {
		return nil, fmt.Errorf("ipc: short key seed blob")
	}
	n := int(binary.LittleEndian.Uint32(blob))
	off := 4
	seed := make([]seedKeyEntry, 0, n)
	for i := 0; i < n; i++ {
		if off+20 > len(blob) {
			return nil, fmt.Errorf("ipc: truncated key seed")
		}
		key := int64(binary.LittleEndian.Uint64(blob[off:]))
		id := int64(binary.LittleEndian.Uint64(blob[off+8:]))
		ol := int(binary.LittleEndian.Uint32(blob[off+16:]))
		off += 20
		if off+ol > len(blob) {
			return nil, fmt.Errorf("ipc: truncated key seed owner")
		}
		seed = append(seed, seedKeyEntry{key: key, id: id, owner: string(blob[off : off+ol])})
		off += ol
	}
	if off != len(blob) {
		return nil, fmt.Errorf("ipc: key seed length mismatch")
	}
	return seed, nil
}

// keyResolve resolves or creates a key mapping. proposedID is the
// requester's locally allocated ID, used only on creation; zero means
// "allocate for me" and draws the next ID under the same lock (the
// leader's own creates use this to skip the batch-allocation step — its
// SysV IDs need no ranges entry because ownership lives in l.owners).
// With wantLease,
// a create in an unleased block registers the key AND grants the whole
// block to the requester in the same round trip; later creates and lookups
// in that block are then served by the holder (locally, or via the
// indirect response for other helpers).
func (l *leaderState) keyResolve(kind int, key int64, flags int, proposedID int64, requester string, wantLease bool) (keyResult, api.Errno) {
	l.mu.Lock()
	defer l.mu.Unlock()
	keys := l.keys[kind]
	if keys == nil {
		return keyResult{}, api.EINVAL
	}
	if key != api.IPCPrivate {
		if e, ok := keys[key]; ok {
			if flags&api.IPCCreat != 0 && flags&api.IPCExcl != 0 {
				return keyResult{}, api.EEXIST
			}
			return keyResult{id: e.id, owner: e.owner}, 0
		}
		// Not registered here. A leased block's holder is authoritative
		// for unregistered keys in it (its creates register lazily), so
		// send the requester there rather than answering ENOENT.
		block := keyBlock(key)
		if holder, ok := l.leases[kind][block]; ok && holder != requester {
			return keyResult{indirect: holder, block: block}, 0
		}
		if flags&api.IPCCreat == 0 {
			return keyResult{}, api.ENOENT
		}
		if proposedID == 0 {
			l.alignCursorLocked(kind, 1)
			proposedID = l.next[kind]
			l.next[kind]++
		}
		keys[key] = keyEntry{id: proposedID, owner: requester}
		l.owners[kind][proposedID] = ownerEntry{addr: requester, epoch: 1}
		if wantLease {
			if _, taken := l.leases[kind][block]; !taken {
				l.leases[kind][block] = requester
				// Seed the grantee with the block's other registered keys
				// so its now-authoritative cache agrees with the leader's
				// table from the first lookup (see keyResult.seed).
				var seed []seedKeyEntry
				base := block * keyBlockSize
				for k := base; k < base+keyBlockSize; k++ {
					if k == key {
						continue
					}
					if e, ok := keys[k]; ok {
						seed = append(seed, seedKeyEntry{key: k, id: e.id, owner: e.owner})
					}
				}
				return keyResult{id: proposedID, owner: requester, leased: true, block: block, seed: seed}, 0
			}
		}
		return keyResult{id: proposedID, owner: requester}, 0
	}
	if proposedID == 0 {
		l.alignCursorLocked(kind, 1)
		proposedID = l.next[kind]
		l.next[kind]++
	}
	l.owners[kind][proposedID] = ownerEntry{addr: requester, epoch: 1}
	return keyResult{id: proposedID, owner: requester}, 0
}

// keyGet is keyResolve without lease handling (kept for the direct-path
// callers and tests; an indirect result cannot occur without leases).
func (l *leaderState) keyGet(kind int, key int64, flags int, proposedID int64, requester string) (id int64, owner string, err api.Errno) {
	r, errno := l.keyResolve(kind, key, flags, proposedID, requester, false)
	if errno != 0 {
		return 0, "", errno
	}
	return r.id, r.owner, 0
}

// registerKey installs a key mapping created under a block lease. The
// lazy registration can arrive after a migration already recorded a newer
// owner for the ID, so an existing owner entry wins over the report. The
// returned ID is the authoritative one the key resolves to after the
// call: 0 when the reported object is tombstoned, the incumbent entry's
// ID when the key is already taken (first writer won), else the reported
// ID itself. Reconciliation after a partition heal compares it against
// the reported ID to detect losing copies.
func (l *leaderState) registerKey(kind int, key, id int64, owner string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.registerKeyLocked(kind, key, id, owner)
}

func (l *leaderState) registerKeyLocked(kind int, key, id int64, owner string) int64 {
	if _, dead := l.removed[kind][id]; dead {
		return 0 // the object was destroyed while the report was in flight
	}
	if cur, ok := l.owners[kind][id]; ok {
		owner = cur.addr
	} else {
		if l.owners[kind] == nil {
			return 0
		}
		l.owners[kind][id] = ownerEntry{addr: owner, epoch: 1}
	}
	if key != api.IPCPrivate && l.keys[kind] != nil {
		if cur, exists := l.keys[kind][key]; exists {
			return cur.id
		}
		l.keys[kind][key] = keyEntry{id: id, owner: owner}
	}
	return id
}

// releaseLease drops a block lease (holder exit, or a peer reporting the
// holder dead). Keys the holder flushed stay registered; anything it never
// reported dies with it, like all of a crashed picoprocess's local state.
func (l *leaderState) releaseLease(kind int, block int64) {
	l.mu.Lock()
	delete(l.leases[kind], block)
	l.mu.Unlock()
}

// idOwner returns the current owner of a System V object.
func (l *leaderState) idOwner(kind int, id int64) (string, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	o, ok := l.owners[kind][id]
	return o.addr, ok
}

// chown updates an object's owner after a migration (§4.3). epoch is the
// migration epoch under which newOwner received the object; a chown older
// than the recorded epoch lost a migration race and is dropped. epoch 0
// means the caller has no epoch knowledge (queue adoption from a persisted
// copy, whose previous owner is dead): the claim is accepted and bumps the
// recorded epoch.
func (l *leaderState) chown(kind int, id int64, newOwner string, epoch int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := l.owners[kind]
	if m == nil {
		return
	}
	cur := m[id]
	if epoch == 0 {
		epoch = cur.epoch + 1
	} else if epoch < cur.epoch {
		return
	}
	m[id] = ownerEntry{addr: newOwner, epoch: epoch}
	for key, e := range l.keys[kind] {
		if e.id == id {
			e.owner = newOwner
			l.keys[kind][key] = e
		}
	}
}

// keyEvictNote tells a lease holder to drop its cached entry for a
// removed key.
type keyEvictNote struct {
	kind   int
	key    int64
	holder string
}

// remove drops an object and any key pointing at it, returning eviction
// notices for lease holders still caching the dropped keys (the caller
// delivers them off the RPC handler goroutine).
func (l *leaderState) remove(kind int, id int64) (notify []keyEvictNote) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.removed[kind] != nil {
		l.removed[kind][id] = struct{}{}
	}
	delete(l.owners[kind], id)
	for key, e := range l.keys[kind] {
		if e.id == id {
			delete(l.keys[kind], key)
			if holder, ok := l.leases[kind][keyBlock(key)]; ok {
				notify = append(notify, keyEvictNote{kind: kind, key: key, holder: holder})
			}
		}
	}
	return notify
}

// markDeparted records a graceful member departure (MsgBye): the member's
// objects were persisted or migrated on its way out, so a later stream
// teardown from it must not trigger reaping.
func (l *leaderState) markDeparted(addr string) {
	if addr == "" {
		return
	}
	l.mu.Lock()
	l.departed[addr] = struct{}{}
	l.mu.Unlock()
}

// reap reclaims a crashed member's namespace state: its ID ranges (so PID
// queries fail ESRCH instead of pointing at a ghost), its key-block leases
// (so unregistered keys in those blocks resolve at the leader again), and
// its owned System V objects (tombstoned, exactly like an explicit remove,
// so parked waiters and future lookups get EIDRM). Returns eviction
// notices for surviving lease holders and whether any reaping happened —
// false for an address that departed gracefully or was already reaped.
func (l *leaderState) reap(addr string) (notify []keyEvictNote, reaped bool) {
	if addr == "" {
		return nil, false
	}
	l.mu.Lock()
	if _, gone := l.departed[addr]; gone {
		l.mu.Unlock()
		return nil, false
	}
	l.departed[addr] = struct{}{}
	for kind, rs := range l.ranges {
		keep := rs[:0]
		for _, r := range rs {
			if r.owner != addr {
				keep = append(keep, r)
			}
		}
		l.ranges[kind] = keep
	}
	for _, m := range l.leases {
		for block, holder := range m {
			if holder == addr {
				delete(m, block)
			}
		}
	}
	for kind, owners := range l.owners {
		for id, o := range owners {
			if o.addr != addr {
				continue
			}
			if l.removed[kind] != nil {
				l.removed[kind][id] = struct{}{}
			}
			delete(owners, id)
			for key, e := range l.keys[kind] {
				if e.id == id {
					delete(l.keys[kind], key)
					if holder, ok := l.leases[kind][keyBlock(key)]; ok {
						notify = append(notify, keyEvictNote{kind: kind, key: key, holder: holder})
					}
				}
			}
		}
	}
	l.mu.Unlock()
	l.pgs.dropAddr(addr)
	return notify, true
}
