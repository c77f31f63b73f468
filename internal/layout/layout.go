// Package layout implements the NASD object system's on-disk layout:
// a superblock, a reference-counted block allocator (reference counts,
// rather than a plain bitmap, make copy-on-write object versions cheap),
// a table of onodes (object nodes, loosely modelled on FFS inodes as the
// paper's interface is "based loosely on the inode interface of a UNIX
// filesystem"), and direct/indirect block maps.
//
// The paper's prototype object system implemented "its own internal
// object access, cache, and disk space management modules"; this package
// is the disk space management module.
package layout

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
	"nasd/internal/journal"
	"nasd/internal/telemetry"
)

// Geometry constants.
const (
	// Magic identifies a formatted NASD volume.
	Magic = 0x4E415344 // "NASD"
	// FormatVersion is the only layout version this package reads or
	// writes. Version 2 added the reserved metadata-journal region;
	// version-1 (pre-journal) volumes no longer open.
	FormatVersion = 2
	// OnodeSize is the on-disk size of one onode.
	OnodeSize = 512
	// NumDirect is the number of direct block pointers per onode.
	NumDirect = 20
	// UninterpSize is the size of the uninterpreted filesystem-specific
	// attribute block each object carries (Section 4.1: "an uninterpreted
	// block of attribute space is available to the file manager").
	UninterpSize = 256
)

// Layout errors.
var (
	ErrNotFormatted = errors.New("layout: device not formatted")
	ErrNoSpace      = errors.New("layout: out of space")
	ErrNoOnodes     = errors.New("layout: onode table full")
	ErrBadOnode     = errors.New("layout: onode index out of range")
	ErrTooBig       = errors.New("layout: offset beyond maximum object size")
)

// Superblock describes the volume.
type Superblock struct {
	Magic        uint32
	Version      uint32
	BlockSize    uint32
	TotalBlocks  int64
	RefStart     int64 // first block of the refcount region
	RefBlocks    int64
	OnodeStart   int64 // first block of the onode table
	OnodeBlocks  int64
	DataStart    int64 // first data block
	OnodeCount   int64
	NextObjectID uint64
	// JournalStart/JournalBlocks locate the reserved write-ahead
	// journal region.
	JournalStart  int64
	JournalBlocks int64
}

// Onode is an object node: per-object metadata plus the block map.
type Onode struct {
	ObjectID   uint64 // 0 means the slot is free
	Partition  uint16
	Flags      uint16
	Version    uint64 // logical version number (capability revocation)
	Size       uint64 // object size in bytes
	CreateSec  int64
	ModSec     int64
	AttrModSec int64
	Prealloc   uint64 // reserved capacity in bytes
	Cluster    uint64 // object this one should be clustered near
	Uninterp   [UninterpSize]byte
	Direct     [NumDirect]int64
	Indirect   int64 // single-indirect block (block of block pointers)
	Indirect2  int64 // double-indirect block
}

// Allocated reports whether the onode holds a live object.
func (o *Onode) Allocated() bool { return o.ObjectID != 0 }

// BlockIO is the interface layout uses to move data-block contents
// during copy-on-write copies. By default it is the device itself; the
// object layer points it at its buffer cache so COW copies observe
// write-behind data that has not reached the device yet.
type BlockIO interface {
	ReadBlock(i int64, buf []byte) error
	WriteBlock(i int64, data []byte) error
}

// onodeStripes is the number of independently locked stripes of the
// onode table. Onodes are packed several to a device block, so an
// onode write is a read-modify-write of its block; the stripe lock
// (indexed by device block) makes that atomic without serializing
// writes to unrelated onode blocks.
const onodeStripes = 16

// Store is an open volume. All methods are safe for concurrent use:
// allocator and index state is guarded by a single narrowly-scoped
// mutex (mu) held only across in-memory bitmap/metadata mutations,
// and onode-table device blocks by per-block stripe locks. Pointer
// (indirect) blocks carry no lock here — exclusively-owned pointer
// blocks are only ever written under their object's exclusive lock in
// the layer above, and copy-on-write-shared pointer blocks are read-
// only until unshared. In the object store's lock hierarchy this
// package is the bottom layer (object → partition → cache → layout).
type Store struct {
	mu     sync.Mutex
	meter  *telemetry.LockMeter
	onmu   [onodeStripes]sync.Mutex
	dev    blockdev.Device
	dataIO BlockIO
	sb     Superblock

	ref       []uint16 // in-memory refcounts, persisted to RefStart region
	refDirty  map[int64]bool
	freeCount int64
	sbDirty   bool

	onodeIndex map[uint64]int64 // object ID -> onode slot
	freeOnodes []int64
	allocHint  int64

	ptrsPerBlock int64

	// jnl is the write-ahead metadata journal. refPending
	// accumulates refcount changes since the last Sync for the next
	// KindRefUpdate intent record; recovered holds the non-layout
	// records (partition table, needle segment tables) replayed at
	// Open for the object layer to apply.
	jnl        *journal.Journal
	refPending map[int64]uint16
	recovered  []journal.Record
	recStats   journal.Stats

	// devReads counts device reads issued for layout metadata (onodes
	// and pointer blocks), which bypass the object layer's cache. The
	// object layer folds it into its media-I/O-per-read gauge.
	devReads atomic.Int64

	// meta caches recently read onode and pointer blocks so the
	// block-map walk does not pay one media read per data block
	// (metacache.go documents the coherence rules).
	meta *metaCache
}

// Options controls Format and Open.
type Options struct {
	// OnodeCount is the number of onode slots Format creates (default:
	// one per 64 data blocks, min 128). Open reads it from the
	// superblock.
	OnodeCount int64
	// Metrics receives the journal.* counters (optional).
	Metrics *telemetry.Registry
}

// journalBlocks sizes the journal region for a device: 1/32 of it,
// clamped to [16, 1024] blocks.
func journalBlocks(total int64) int64 {
	jb := total / 32
	if jb < 16 {
		jb = 16
	}
	if jb > 1024 {
		jb = 1024
	}
	return jb
}

// Format writes a fresh, empty layout to dev and returns the open store.
func Format(dev blockdev.Device, opts Options) (*Store, error) {
	bs := int64(dev.BlockSize())
	if bs < 512 || bs%512 != 0 {
		return nil, fmt.Errorf("layout: unsupported block size %d", bs)
	}
	total := dev.Blocks()
	refPerBlock := bs / 2
	refBlocks := (total + refPerBlock - 1) / refPerBlock
	onodeCount := opts.OnodeCount
	if onodeCount <= 0 {
		onodeCount = total / 64
		if onodeCount < 128 {
			onodeCount = 128
		}
	}
	onodesPerBlock := bs / OnodeSize
	onodeBlocks := (onodeCount + onodesPerBlock - 1) / onodesPerBlock
	jb := journalBlocks(total)
	const journalStart = 1
	refStart := journalStart + jb
	dataStart := refStart + refBlocks + onodeBlocks
	if dataStart >= total {
		return nil, fmt.Errorf("layout: device too small (%d blocks, %d needed for metadata)", total, dataStart)
	}
	sb := Superblock{
		Magic:         Magic,
		Version:       FormatVersion,
		BlockSize:     uint32(bs),
		TotalBlocks:   total,
		RefStart:      refStart,
		RefBlocks:     refBlocks,
		OnodeStart:    refStart + refBlocks,
		OnodeBlocks:   onodeBlocks,
		DataStart:     dataStart,
		OnodeCount:    onodeCount,
		NextObjectID:  1,
		JournalStart:  journalStart,
		JournalBlocks: jb,
	}
	if err := journal.Format(dev, journalStart, jb); err != nil {
		return nil, err
	}
	j, _, _, err := journal.Open(dev, journalStart, jb, opts.Metrics)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dev:          dev,
		dataIO:       dev,
		sb:           sb,
		ref:          make([]uint16, total),
		refDirty:     make(map[int64]bool),
		freeCount:    total - dataStart,
		onodeIndex:   make(map[uint64]int64),
		ptrsPerBlock: bs / 8,
		allocHint:    dataStart,
		meta:         newMetaCache(),
		jnl:          j,
		refPending:   make(map[int64]uint16),
	}
	// Metadata blocks are permanently referenced.
	for i := int64(0); i < dataStart; i++ {
		s.ref[i] = 1
		s.refDirty[i/refPerBlock] = true
	}
	// Zero the onode table.
	zero := make([]byte, bs)
	for i := int64(0); i < onodeBlocks; i++ {
		if err := dev.WriteBlock(sb.OnodeStart+i, zero); err != nil {
			return nil, err
		}
	}
	for i := onodeCount - 1; i >= 0; i-- {
		s.freeOnodes = append(s.freeOnodes, i)
	}
	s.sbDirty = true
	if err := s.Sync(); err != nil {
		return nil, err
	}
	return s, nil
}

// Open reads an existing layout from dev. It first recovers the
// write-ahead journal: committed onode records are patched onto the device before the onode scan, committed
// refcount updates are replayed over the loaded allocator state, and
// object-layer records (partition table, needle segment tables) are
// retained for RecoveredRecords. The caller finishes recovery by
// making the replayed state durable (Sync) and calling JournalReset.
func Open(dev blockdev.Device, opts Options) (*Store, error) {
	bs := int64(dev.BlockSize())
	buf := make([]byte, bs)
	if err := dev.ReadBlock(0, buf); err != nil {
		return nil, err
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return nil, err
	}
	if int64(sb.BlockSize) != bs {
		return nil, fmt.Errorf("layout: superblock block size %d != device %d", sb.BlockSize, bs)
	}
	if sb.JournalBlocks <= 0 {
		return nil, errors.New("layout: volume has no journal region")
	}
	j, recs, st, err := journal.Open(dev, sb.JournalStart, sb.JournalBlocks, opts.Metrics)
	if err != nil {
		return nil, err
	}
	s := &Store{
		dev:          dev,
		dataIO:       dev,
		sb:           sb,
		ref:          make([]uint16, sb.TotalBlocks),
		refDirty:     make(map[int64]bool),
		onodeIndex:   make(map[uint64]int64),
		ptrsPerBlock: bs / 8,
		allocHint:    sb.DataStart,
		meta:         newMetaCache(),
		jnl:          j,
		refPending:   make(map[int64]uint16),
		recStats:     st,
	}
	var refRecs []journal.Record
	for _, r := range recs {
		switch r.Kind {
		case journal.KindOnode:
			// Patch the image onto the device now, before the onode
			// scan below builds the index from it.
			if err := s.replayOnode(r); err != nil {
				return nil, err
			}
			j.Applied(r.LSN)
		case journal.KindRefUpdate:
			refRecs = append(refRecs, r)
		default:
			s.recovered = append(s.recovered, r)
		}
	}
	// Load refcounts.
	refPerBlock := bs / 2
	for i := int64(0); i < sb.RefBlocks; i++ {
		if err := dev.ReadBlock(sb.RefStart+i, buf); err != nil {
			return nil, err
		}
		base := i * refPerBlock
		for j := int64(0); j < refPerBlock && base+j < sb.TotalBlocks; j++ {
			s.ref[base+j] = binary.LittleEndian.Uint16(buf[j*2:])
		}
	}
	// Replay committed refcount intents over the loaded table; the
	// dirty marks route them back to the device on the next Sync.
	for _, r := range refRecs {
		blocks, refs, derr := journal.DecodeRefUpdate(r.Payload)
		if derr != nil {
			return nil, derr
		}
		for i, b := range blocks {
			if b >= 0 && b < sb.TotalBlocks && s.ref[b] != refs[i] {
				s.ref[b] = refs[i]
				s.refDirty[b/refPerBlock] = true
			}
		}
		s.jnl.Applied(r.LSN)
	}
	for i := sb.DataStart; i < sb.TotalBlocks; i++ {
		if s.ref[i] == 0 {
			s.freeCount++
		}
	}
	// Scan onode table to build the index and free list.
	onodesPerBlock := bs / OnodeSize
	for blk := int64(0); blk < sb.OnodeBlocks; blk++ {
		if err := dev.ReadBlock(sb.OnodeStart+blk, buf); err != nil {
			return nil, err
		}
		for j := int64(0); j < onodesPerBlock; j++ {
			idx := blk*onodesPerBlock + j
			if idx >= sb.OnodeCount {
				break
			}
			o := decodeOnode(buf[j*OnodeSize : (j+1)*OnodeSize])
			if o.Allocated() {
				s.onodeIndex[o.ObjectID] = idx
			} else {
				s.freeOnodes = append(s.freeOnodes, idx)
			}
		}
	}
	// Free list pops from the end; reverse so low indexes allocate first.
	for i, j := 0, len(s.freeOnodes)-1; i < j; i, j = i+1, j-1 {
		s.freeOnodes[i], s.freeOnodes[j] = s.freeOnodes[j], s.freeOnodes[i]
	}
	return s, nil
}

// replayOnode writes a recovered onode image back to its slot on the
// device (the committed intent whose in-place write may have been
// lost or torn by the crash).
func (s *Store) replayOnode(r journal.Record) error {
	idx32, image, err := journal.DecodeOnode(r.Payload)
	if err != nil {
		return err
	}
	idx := int64(idx32)
	if idx < 0 || idx >= s.sb.OnodeCount || len(image) != OnodeSize {
		return fmt.Errorf("layout: journal onode record out of range (idx %d)", idx)
	}
	bs := int64(s.sb.BlockSize)
	per := bs / OnodeSize
	blk := s.sb.OnodeStart + idx/per
	buf := make([]byte, bs)
	if err := s.dev.ReadBlock(blk, buf); err != nil {
		return err
	}
	off := (idx % per) * OnodeSize
	copy(buf[off:off+OnodeSize], image)
	s.meta.invalidate(blk)
	return s.dev.WriteBlock(blk, buf)
}

// --- Journal ----------------------------------------------------------

// journalAppend appends an intent record, recovering from a full
// journal by flushing the device (which makes every issued in-place
// effect durable) and compacting applied records away, then retrying.
func (s *Store) journalAppend(kind journal.Kind, payload []byte) (uint64, error) {
	lsn, err := s.jnl.Append(kind, payload)
	if errors.Is(err, journal.ErrFull) {
		if ferr := s.dev.Flush(); ferr != nil {
			return 0, ferr
		}
		if cerr := s.jnl.Checkpoint(); cerr != nil {
			return 0, cerr
		}
		lsn, err = s.jnl.Append(kind, payload)
	}
	return lsn, err
}

// JournalAppend durably appends one intent record on behalf of the
// object layer (partition table, needle segment tables): the record is
// committed — group-flushed — before return. journal.ErrFull means the
// record cannot fit even after compaction; the caller should fall back
// to its direct durable write path.
func (s *Store) JournalAppend(kind journal.Kind, payload []byte) (uint64, error) {
	lsn, err := s.journalAppend(kind, payload)
	if err != nil {
		return 0, err
	}
	if err := s.jnl.Commit(lsn); err != nil {
		return 0, err
	}
	return lsn, nil
}

// JournalApplied marks an object-layer record's in-place effect as
// issued (see journal.Journal.Applied).
func (s *Store) JournalApplied(lsn uint64) { s.jnl.Applied(lsn) }

// JournalReset discards the journal at the end of mount-time recovery.
// Every replayed effect must already be durable (Sync first).
func (s *Store) JournalReset() error { return s.jnl.Reset() }

// RecoveredRecords returns the object-layer journal records (partition
// table, needle segment tables) replayed at Open, plus the scan stats.
func (s *Store) RecoveredRecords() ([]journal.Record, journal.Stats) {
	return s.recovered, s.recStats
}

// lockAlloc acquires the allocator/index mutex through the contention
// meter (a nil meter locks directly).
func (s *Store) lockAlloc() { s.meter.Lock(&s.mu) }

// SetLockMeter wires contention telemetry for the allocator lock. Call
// before concurrent use.
func (s *Store) SetLockMeter(m *telemetry.LockMeter) { s.meter = m }

// onodeLock returns the stripe lock covering the onode-table device
// block that holds onode idx.
func (s *Store) onodeLock(idx int64) *sync.Mutex {
	per := int64(s.sb.BlockSize) / OnodeSize
	return &s.onmu[(idx/per)%onodeStripes]
}

// BlockSize returns the volume block size in bytes.
func (s *Store) BlockSize() int64 { return int64(s.sb.BlockSize) }

// FreeBlocks returns the number of currently unreferenced data blocks.
func (s *Store) FreeBlocks() int64 {
	s.lockAlloc()
	defer s.mu.Unlock()
	return s.freeCount
}

// SetDataIO routes data-block copy-on-write copies through io instead of
// the raw device. Pass the object layer's buffer cache so COW copies see
// write-behind data. Pointer (indirect) blocks always use the raw device
// because the block-map code reads them directly from it.
func (s *Store) SetDataIO(io BlockIO) {
	s.lockAlloc()
	defer s.mu.Unlock()
	s.dataIO = io
}

// Superblock returns a copy of the superblock.
func (s *Store) Superblock() Superblock {
	s.lockAlloc()
	defer s.mu.Unlock()
	return s.sb
}

// NextObjectID atomically returns and increments the volume's object ID
// counter.
func (s *Store) NextObjectID() uint64 {
	s.lockAlloc()
	defer s.mu.Unlock()
	id := s.sb.NextObjectID
	s.sb.NextObjectID++
	s.sbDirty = true
	return id
}

// ReserveObjectIDs raises the object ID counter to at least min so IDs
// below min can be used as well-known objects.
func (s *Store) ReserveObjectIDs(min uint64) {
	s.lockAlloc()
	defer s.mu.Unlock()
	if s.sb.NextObjectID < min {
		s.sb.NextObjectID = min
		s.sbDirty = true
	}
}

// MaxObjectSize returns the largest object size the block map supports.
func (s *Store) MaxObjectSize() uint64 {
	bs := uint64(s.sb.BlockSize)
	p := uint64(s.ptrsPerBlock)
	return bs * (NumDirect + p + p*p)
}

// --- Block allocation -------------------------------------------------

// Alloc allocates n data blocks, preferring a contiguous run starting at
// or after hint (pass 0 for no preference). Contiguity is what lets the
// drive schedule efficient sequential transfers (the paper's NASD is
// "better tuned for disk access" than FFS).
func (s *Store) Alloc(n int, hint int64) ([]int64, error) {
	s.lockAlloc()
	defer s.mu.Unlock()
	if n <= 0 {
		return nil, nil
	}
	start := hint
	if start < s.sb.DataStart || start >= s.sb.TotalBlocks {
		start = s.allocHint
	}
	blocks := make([]int64, 0, n)
	// First pass: scan from start; second pass: from the data region start.
	for pass := 0; pass < 2 && len(blocks) < n; pass++ {
		var lo, hi int64
		if pass == 0 {
			lo, hi = start, s.sb.TotalBlocks
		} else {
			lo, hi = s.sb.DataStart, start
		}
		for i := lo; i < hi && len(blocks) < n; i++ {
			if s.ref[i] == 0 {
				blocks = append(blocks, i)
			}
		}
	}
	if len(blocks) < n {
		return nil, ErrNoSpace
	}
	for _, b := range blocks {
		s.setRef(b, 1)
	}
	s.allocHint = blocks[len(blocks)-1] + 1
	if s.allocHint >= s.sb.TotalBlocks {
		s.allocHint = s.sb.DataStart
	}
	return blocks, nil
}

// IncRef increments a block's reference count (copy-on-write sharing).
func (s *Store) IncRef(blk int64) error {
	s.lockAlloc()
	defer s.mu.Unlock()
	if blk < s.sb.DataStart || blk >= s.sb.TotalBlocks {
		return fmt.Errorf("layout: IncRef(%d) outside data region", blk)
	}
	if s.ref[blk] == 0 {
		return fmt.Errorf("layout: IncRef(%d) on free block", blk)
	}
	s.setRef(blk, s.ref[blk]+1)
	return nil
}

// Free decrements a block's reference count, freeing it at zero.
func (s *Store) Free(blk int64) error {
	s.lockAlloc()
	defer s.mu.Unlock()
	if blk < s.sb.DataStart || blk >= s.sb.TotalBlocks {
		return fmt.Errorf("layout: Free(%d) outside data region", blk)
	}
	if s.ref[blk] == 0 {
		return fmt.Errorf("layout: double free of block %d", blk)
	}
	s.setRef(blk, s.ref[blk]-1)
	if s.ref[blk] == 0 {
		// A fully freed block may be reallocated for anything (data or
		// metadata); a cached metadata copy must not outlive it.
		s.meta.invalidate(blk)
	}
	return nil
}

// RefCount returns a block's reference count.
func (s *Store) RefCount(blk int64) uint16 {
	s.lockAlloc()
	defer s.mu.Unlock()
	if blk < 0 || blk >= s.sb.TotalBlocks {
		return 0
	}
	return s.ref[blk]
}

// setRef must be called with mu held.
func (s *Store) setRef(blk int64, v uint16) {
	old := s.ref[blk]
	if blk >= s.sb.DataStart {
		if old == 0 && v > 0 {
			s.freeCount--
		} else if old > 0 && v == 0 {
			s.freeCount++
		}
	}
	s.ref[blk] = v
	refPerBlock := int64(s.sb.BlockSize) / 2
	s.refDirty[blk/refPerBlock] = true
	// Accumulate for the KindRefUpdate intent record that Sync commits
	// before rewriting the refcount region in place.
	s.refPending[blk] = v
}

// --- Onode management -------------------------------------------------

// AllocOnode claims a free onode slot and returns its index.
func (s *Store) AllocOnode() (int64, error) {
	s.lockAlloc()
	defer s.mu.Unlock()
	if len(s.freeOnodes) == 0 {
		return 0, ErrNoOnodes
	}
	idx := s.freeOnodes[len(s.freeOnodes)-1]
	s.freeOnodes = s.freeOnodes[:len(s.freeOnodes)-1]
	return idx, nil
}

// ReadOnode loads the onode at idx. The stripe lock excludes a
// concurrent writer of the same onode block, so the read is never
// torn.
func (s *Store) ReadOnode(idx int64) (Onode, error) {
	if idx < 0 || idx >= s.sb.OnodeCount {
		return Onode{}, ErrBadOnode
	}
	bs := int64(s.sb.BlockSize)
	per := bs / OnodeSize
	blk := s.sb.OnodeStart + idx/per
	off := (idx % per) * OnodeSize
	l := s.onodeLock(idx)
	l.Lock()
	defer l.Unlock()
	var o Onode
	if s.meta.view(blk, func(b []byte) { o = decodeOnode(b[off : off+OnodeSize]) }) {
		return o, nil
	}
	buf := bufpool.Get(int(bs))
	defer bufpool.Put(buf)
	s.devReads.Add(1)
	if err := s.dev.ReadBlock(blk, buf); err != nil {
		return Onode{}, err
	}
	// Fill under the stripe lock: a concurrent WriteOnode of this block
	// serializes behind us, so the entry cannot go stale mid-install.
	s.meta.fill(blk, buf)
	return decodeOnode(buf[off : off+OnodeSize]), nil
}

// WriteOnode stores o at idx (write-through) and maintains the object ID
// index. Writing a zero ObjectID releases the slot. The stripe lock
// makes the read-modify-write of the shared onode block atomic against
// writers of neighboring onodes. The new onode image is committed to the write-ahead journal before the in-place
// write is issued, so a crash that loses or tears the onode block is
// repaired by replay at the next mount.
func (s *Store) WriteOnode(idx int64, o *Onode) error {
	if idx < 0 || idx >= s.sb.OnodeCount {
		return ErrBadOnode
	}
	bs := int64(s.sb.BlockSize)
	per := bs / OnodeSize
	blk := s.sb.OnodeStart + idx/per
	buf := make([]byte, bs)
	l := s.onodeLock(idx)
	l.Lock()
	if !s.meta.view(blk, func(b []byte) { copy(buf, b) }) {
		s.devReads.Add(1)
		if err := s.dev.ReadBlock(blk, buf); err != nil {
			l.Unlock()
			return err
		}
	}
	off := (idx % per) * OnodeSize
	prev := decodeOnode(buf[off : off+OnodeSize])
	encodeOnode(buf[off:off+OnodeSize], o)
	lsn, err := s.journalAppend(journal.KindOnode, journal.EncodeOnode(uint32(idx), buf[off:off+OnodeSize]))
	if err == nil {
		err = s.jnl.Commit(lsn)
	}
	if err != nil {
		l.Unlock()
		return err
	}
	if err := s.dev.WriteBlock(blk, buf); err != nil {
		s.meta.invalidate(blk)
		l.Unlock()
		return err
	}
	s.meta.fill(blk, buf)
	l.Unlock()
	s.jnl.Applied(lsn)
	s.lockAlloc()
	defer s.mu.Unlock()
	if prev.Allocated() && (prev.ObjectID != o.ObjectID) {
		delete(s.onodeIndex, prev.ObjectID)
	}
	if o.Allocated() {
		s.onodeIndex[o.ObjectID] = idx
	} else if prev.Allocated() {
		s.freeOnodes = append(s.freeOnodes, idx)
	}
	return nil
}

// FindOnode returns the onode slot holding objectID.
func (s *Store) FindOnode(objectID uint64) (int64, bool) {
	s.lockAlloc()
	defer s.mu.Unlock()
	idx, ok := s.onodeIndex[objectID]
	return idx, ok
}

// ObjectIDs returns the IDs of all allocated objects, optionally
// filtered by partition (0 = all). Order is unspecified.
func (s *Store) ObjectIDs(partition uint16) []uint64 {
	s.lockAlloc()
	idxs := make([]int64, 0, len(s.onodeIndex))
	ids := make([]uint64, 0, len(s.onodeIndex))
	for id, idx := range s.onodeIndex {
		ids = append(ids, id)
		idxs = append(idxs, idx)
	}
	s.mu.Unlock()
	if partition == 0 {
		return ids
	}
	out := ids[:0]
	for i, idx := range idxs {
		o, err := s.ReadOnode(idx)
		if err == nil && o.Partition == partition {
			out = append(out, ids[i])
		}
	}
	return out
}

// --- Block map --------------------------------------------------------

// BMap resolves an object-relative block number to a physical block.
// It returns 0 for holes (unallocated regions read as zeros).
func (s *Store) BMap(o *Onode, fileBlock int64) (int64, error) {
	p := s.ptrsPerBlock
	switch {
	case fileBlock < 0:
		return 0, fmt.Errorf("layout: negative file block %d", fileBlock)
	case fileBlock < NumDirect:
		return o.Direct[fileBlock], nil
	case fileBlock < NumDirect+p:
		if o.Indirect == 0 {
			return 0, nil
		}
		return s.readPtr(o.Indirect, fileBlock-NumDirect)
	case fileBlock < NumDirect+p+p*p:
		if o.Indirect2 == 0 {
			return 0, nil
		}
		rel := fileBlock - NumDirect - p
		l1, err := s.readPtr(o.Indirect2, rel/p)
		if err != nil || l1 == 0 {
			return 0, err
		}
		return s.readPtr(l1, rel%p)
	default:
		return 0, ErrTooBig
	}
}

// BMapAlloc resolves like BMap but allocates missing blocks and breaks
// copy-on-write sharing along the path: any block (data or indirect)
// with a reference count above one is replaced by a private copy before
// it can be written. The onode is updated in memory; callers persist it
// with WriteOnode. The returned physical block is safe to overwrite.
//
// added is the number of block references the object gained: one per
// data or pointer block newly mapped where the object had a hole. An
// unshared copy replaces a reference and adds none, so added > 0
// exactly when fileBlock was a hole. On error, added still counts the
// blocks mapped before the failure; they stay in the onode's footprint.
func (s *Store) BMapAlloc(o *Onode, fileBlock int64, hint int64) (phys, added int64, err error) {
	p := s.ptrsPerBlock
	switch {
	case fileBlock < 0:
		return 0, 0, fmt.Errorf("layout: negative file block %d", fileBlock)
	case fileBlock < NumDirect:
		cur := o.Direct[fileBlock]
		blk, err := s.allocOrUnshare(cur, hint, s.dataIO)
		if err != nil {
			return 0, 0, err
		}
		o.Direct[fileBlock] = blk
		return blk, newRef(cur), nil
	case fileBlock < NumDirect+p:
		cur := o.Indirect
		ind, err := s.ensurePtrBlock(&o.Indirect, hint)
		if err != nil {
			return 0, 0, err
		}
		blk, n, err := s.allocThroughPtr(ind, fileBlock-NumDirect, hint)
		return blk, newRef(cur) + n, err
	case fileBlock < NumDirect+p+p*p:
		rel := fileBlock - NumDirect - p
		cur := o.Indirect2
		ind2, err := s.ensurePtrBlock(&o.Indirect2, hint)
		if err != nil {
			return 0, 0, err
		}
		added := newRef(cur)
		l1, err := s.readPtr(ind2, rel/p)
		if err != nil {
			return 0, added, err
		}
		newL1, err := s.ensurePtrBlockAt(ind2, rel/p, l1, hint)
		if err != nil {
			return 0, added, err
		}
		added += newRef(l1)
		blk, n, err := s.allocThroughPtr(newL1, rel%p, hint)
		return blk, added + n, err
	default:
		return 0, 0, ErrTooBig
	}
}

// newRef is the number of references an object gains when a slot that
// held cur is mapped: one for a hole, none for a block already there.
func newRef(cur int64) int64 {
	if cur == 0 {
		return 1
	}
	return 0
}

// allocOrUnshare returns cur if it is exclusively owned, otherwise a
// fresh block (copying cur's contents through io when it was shared).
func (s *Store) allocOrUnshare(cur int64, hint int64, io BlockIO) (int64, error) {
	if cur != 0 && s.RefCount(cur) == 1 {
		return cur, nil
	}
	blks, err := s.Alloc(1, hint)
	if err != nil {
		return 0, err
	}
	nb := blks[0]
	if cur != 0 {
		// Shared: copy old contents, drop our reference to the old block.
		buf := make([]byte, s.sb.BlockSize)
		if err := io.ReadBlock(cur, buf); err != nil {
			_ = s.Free(nb)
			return 0, err
		}
		if err := io.WriteBlock(nb, buf); err != nil {
			_ = s.Free(nb)
			return 0, err
		}
		if err := s.Free(cur); err != nil {
			return 0, err
		}
	}
	return nb, nil
}

// ensurePtrBlock makes *slot point to an exclusively-owned pointer
// block, allocating or copying as needed. Pointer blocks move through
// the raw device, never the data IO path.
func (s *Store) ensurePtrBlock(slot *int64, hint int64) (int64, error) {
	cur := *slot
	if cur != 0 && s.RefCount(cur) == 1 {
		return cur, nil
	}
	nb, err := s.allocOrUnshare(cur, hint, s.dev)
	if err != nil {
		return 0, err
	}
	// nb's device content just changed outside the usual write paths
	// (zeroed below, or the unshare copy inside allocOrUnshare); drop
	// any entry a prior life of this block left behind.
	s.meta.invalidate(nb)
	if cur == 0 {
		// Fresh pointer block must start zeroed.
		if err := s.dev.WriteBlock(nb, make([]byte, s.sb.BlockSize)); err != nil {
			_ = s.Free(nb)
			return 0, err
		}
	}
	*slot = nb
	return nb, nil
}

// ensurePtrBlockAt is ensurePtrBlock for a slot stored inside pointer
// block parent at index idx.
func (s *Store) ensurePtrBlockAt(parent int64, idx int64, cur int64, hint int64) (int64, error) {
	slot := cur
	nb, err := s.ensurePtrBlock(&slot, hint)
	if err != nil {
		return 0, err
	}
	if nb != cur {
		if err := s.writePtr(parent, idx, nb); err != nil {
			return 0, err
		}
	}
	return nb, nil
}

// allocThroughPtr ensures the data block at index idx of pointer block
// ptrBlk exists and is exclusively owned, and reports the references
// gained (see BMapAlloc).
func (s *Store) allocThroughPtr(ptrBlk int64, idx int64, hint int64) (int64, int64, error) {
	cur, err := s.readPtr(ptrBlk, idx)
	if err != nil {
		return 0, 0, err
	}
	nb, err := s.allocOrUnshare(cur, hint, s.dataIO)
	if err != nil {
		return 0, 0, err
	}
	if nb != cur {
		if err := s.writePtr(ptrBlk, idx, nb); err != nil {
			return 0, 0, err
		}
	}
	return nb, newRef(cur), nil
}

// UnmapBlock drops the mapping for an object-relative block: the data
// block loses one reference and the pointer slot is zeroed. Shared
// pointer blocks along the path are unshared first so a copy-on-write
// sibling's mapping is untouched. It reports the physical block that
// was unmapped (0 if the block was a hole). Truncation uses this.
func (s *Store) UnmapBlock(o *Onode, fileBlock int64) (int64, error) {
	p := s.ptrsPerBlock
	switch {
	case fileBlock < 0:
		return 0, fmt.Errorf("layout: negative file block %d", fileBlock)
	case fileBlock < NumDirect:
		cur := o.Direct[fileBlock]
		if cur == 0 {
			return 0, nil
		}
		if err := s.Free(cur); err != nil {
			return 0, err
		}
		o.Direct[fileBlock] = 0
		return cur, nil
	case fileBlock < NumDirect+p:
		if o.Indirect == 0 {
			return 0, nil
		}
		idx := fileBlock - NumDirect
		cur, err := s.readPtr(o.Indirect, idx)
		if err != nil || cur == 0 {
			return 0, err
		}
		ind, err := s.ensurePtrBlock(&o.Indirect, 0)
		if err != nil {
			return 0, err
		}
		if err := s.Free(cur); err != nil {
			return 0, err
		}
		if err := s.writePtr(ind, idx, 0); err != nil {
			return 0, err
		}
		return cur, nil
	case fileBlock < NumDirect+p+p*p:
		if o.Indirect2 == 0 {
			return 0, nil
		}
		rel := fileBlock - NumDirect - p
		l1, err := s.readPtr(o.Indirect2, rel/p)
		if err != nil || l1 == 0 {
			return 0, err
		}
		cur, err := s.readPtr(l1, rel%p)
		if err != nil || cur == 0 {
			return 0, err
		}
		ind2, err := s.ensurePtrBlock(&o.Indirect2, 0)
		if err != nil {
			return 0, err
		}
		newL1, err := s.ensurePtrBlockAt(ind2, rel/p, l1, 0)
		if err != nil {
			return 0, err
		}
		if err := s.Free(cur); err != nil {
			return 0, err
		}
		if err := s.writePtr(newL1, rel%p, 0); err != nil {
			return 0, err
		}
		return cur, nil
	default:
		return 0, ErrTooBig
	}
}

func (s *Store) readPtr(blk int64, idx int64) (int64, error) {
	var v int64
	if s.meta.view(blk, func(b []byte) { v = s.ptrAt(b, idx) }) {
		return v, nil
	}
	buf := bufpool.Get(int(s.sb.BlockSize))
	defer bufpool.Put(buf)
	if err := s.loadPtrBlock(blk, buf); err != nil {
		return 0, err
	}
	return s.ptrAt(buf, idx), nil
}

// ptrAt decodes slot idx of pointer-block contents b. A legitimate
// pointer is zero (hole) or a data-region block. Pointer blocks are not
// write-ahead journaled, so after a crash one can hold stale or torn
// content; clamping wild values to holes here keeps every traversal
// (BMap, ForEachBlock, recovery verification) from wandering out of
// the volume. Affected objects were dirty at the crash and read zeros,
// which the durability contract allows.
func (s *Store) ptrAt(b []byte, idx int64) int64 {
	v := int64(binary.LittleEndian.Uint64(b[idx*8:]))
	if v != 0 && (v < s.sb.DataStart || v >= s.sb.TotalBlocks) {
		return 0
	}
	return v
}

// loadPtrBlock copies pointer block blk into buf: from the metadata
// cache, or from the device on a miss, which then fills the cache.
func (s *Store) loadPtrBlock(blk int64, buf []byte) error {
	if s.meta.view(blk, func(b []byte) { copy(buf, b) }) {
		return nil
	}
	s.devReads.Add(1)
	if err := s.dev.ReadBlock(blk, buf); err != nil {
		return err
	}
	s.meta.fill(blk, buf)
	return nil
}

// DevReads returns the number of device reads issued for layout
// metadata (onode and pointer blocks) since the store was opened.
func (s *Store) DevReads() int64 { return s.devReads.Load() }

func (s *Store) writePtr(blk int64, idx int64, v int64) error {
	buf := bufpool.Get(int(s.sb.BlockSize))
	defer bufpool.Put(buf)
	if err := s.loadPtrBlock(blk, buf); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(buf[idx*8:], uint64(v))
	if err := s.dev.WriteBlock(blk, buf); err != nil {
		// The write may have partially applied; drop any cached copy.
		s.meta.invalidate(blk)
		return err
	}
	s.meta.fill(blk, buf)
	return nil
}

// ForEachBlock calls fn for every physical block reachable from o,
// including indirect blocks themselves (kind "data" or "ptr"). It is
// the traversal used to free, clone or measure an object. Each pointer
// block is copied out once and its slots decoded locally, so a walk
// costs one metadata-cache lookup (or device read) per pointer block,
// not one per slot. A pointer block is read before fn sees it, so fn
// may drop its reference.
func (s *Store) ForEachBlock(o *Onode, fn func(phys int64, isPtr bool) error) error {
	for _, b := range o.Direct {
		if b != 0 {
			if err := fn(b, false); err != nil {
				return err
			}
		}
	}
	if o.Indirect == 0 && o.Indirect2 == 0 {
		return nil
	}
	bs := int(s.sb.BlockSize)
	top := bufpool.Get(bs)
	defer bufpool.Put(top)
	if o.Indirect != 0 {
		if err := s.forEachPtrSlot(o.Indirect, top, fn); err != nil {
			return err
		}
	}
	if o.Indirect2 == 0 {
		return nil
	}
	if err := s.loadPtrBlock(o.Indirect2, top); err != nil {
		return err
	}
	if err := fn(o.Indirect2, true); err != nil {
		return err
	}
	leaf := bufpool.Get(bs)
	defer bufpool.Put(leaf)
	for i := int64(0); i < s.ptrsPerBlock; i++ {
		if l1 := s.ptrAt(top, i); l1 != 0 {
			if err := s.forEachPtrSlot(l1, leaf, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// forEachPtrSlot loads pointer block blk into buf, reports blk itself
// to fn as a pointer block, then every mapped slot as a data block.
func (s *Store) forEachPtrSlot(blk int64, buf []byte, fn func(phys int64, isPtr bool) error) error {
	if err := s.loadPtrBlock(blk, buf); err != nil {
		return err
	}
	if err := fn(blk, true); err != nil {
		return err
	}
	for i := int64(0); i < s.ptrsPerBlock; i++ {
		if b := s.ptrAt(buf, i); b != 0 {
			if err := fn(b, false); err != nil {
				return err
			}
		}
	}
	return nil
}

// FreeObjectBlocks drops one reference from every block reachable from
// o (data and indirect), the destructor half of copy-on-write.
func (s *Store) FreeObjectBlocks(o *Onode) error {
	return s.ForEachBlock(o, func(phys int64, _ bool) error {
		return s.Free(phys)
	})
}

// CloneOnodeBlocks increments the reference count of every block
// reachable from o; the caller then copies the onode itself. This is
// the constructor half of copy-on-write versioning.
func (s *Store) CloneOnodeBlocks(o *Onode) error {
	return s.ForEachBlock(o, func(phys int64, _ bool) error {
		return s.IncRef(phys)
	})
}

// --- Data block IO ----------------------------------------------------

// ReadDataBlock reads physical block blk into buf; blk 0 (a hole) fills
// buf with zeros.
func (s *Store) ReadDataBlock(blk int64, buf []byte) error {
	if blk == 0 {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	return s.dev.ReadBlock(blk, buf)
}

// WriteDataBlock writes buf to physical block blk.
func (s *Store) WriteDataBlock(blk int64, buf []byte) error {
	return s.dev.WriteBlock(blk, buf)
}

// --- Persistence ------------------------------------------------------

// Sync flushes dirty refcount regions and the superblock to the
// device. The accumulated refcount changes are first committed as one KindRefUpdate intent record — write-ahead of
// the in-place region rewrite — and after the flush the journal is
// compacted (applied records discarded, unapplied ones carried
// forward).
func (s *Store) Sync() error {
	s.lockAlloc()
	defer s.mu.Unlock()
	bs := int64(s.sb.BlockSize)
	refPerBlock := bs / 2

	var refLSN uint64
	if len(s.refPending) > 0 {
		blocks := make([]int64, 0, len(s.refPending))
		refs := make([]uint16, 0, len(s.refPending))
		for b, v := range s.refPending {
			blocks = append(blocks, b)
			refs = append(refs, v)
		}
		lsn, err := s.journalAppend(journal.KindRefUpdate, journal.EncodeRefUpdate(blocks, refs))
		switch {
		case errors.Is(err, journal.ErrFull):
			// The batch cannot fit even after compaction. Proceed
			// without the intent record: mount-time verification
			// re-derives refcounts from the object reachability walk,
			// so a torn region write is still repaired.
		case err != nil:
			return err
		default:
			if err := s.jnl.Commit(lsn); err != nil {
				return err
			}
			refLSN = lsn
		}
		s.refPending = make(map[int64]uint16)
	}

	buf := make([]byte, bs)
	for rb := range s.refDirty {
		base := rb * refPerBlock
		for j := int64(0); j < refPerBlock; j++ {
			var v uint16
			if base+j < s.sb.TotalBlocks {
				v = s.ref[base+j]
			}
			binary.LittleEndian.PutUint16(buf[j*2:], v)
		}
		if err := s.dev.WriteBlock(s.sb.RefStart+rb, buf); err != nil {
			return err
		}
	}
	s.refDirty = make(map[int64]bool)
	if s.sbDirty {
		sbuf := make([]byte, bs)
		encodeSuperblock(sbuf, &s.sb)
		if err := s.dev.WriteBlock(0, sbuf); err != nil {
			return err
		}
		s.sbDirty = false
	}
	if err := s.dev.Flush(); err != nil {
		return err
	}
	// Every effect issued before the flush above is now durable, so
	// applied records can be compacted away.
	if refLSN != 0 {
		s.jnl.Applied(refLSN)
	}
	return s.jnl.Checkpoint()
}

// RepairRef forces a block's reference count to v. Mount-time
// verification uses it to reconcile the allocator with the refcounts
// re-derived from object reachability after a crash.
func (s *Store) RepairRef(blk int64, v uint16) {
	s.lockAlloc()
	defer s.mu.Unlock()
	if blk < 0 || blk >= s.sb.TotalBlocks || s.ref[blk] == v {
		return
	}
	s.setRef(blk, v)
}
