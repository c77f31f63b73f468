package object

import (
	"time"

	"nasd/internal/bufpool"
	"nasd/internal/cache"
	"nasd/internal/layout"
	"nasd/internal/telemetry"
)

// classicBackend is the paper's object engine behind the StoreBackend
// interface: the layout package's superblock / refcounted allocator /
// onode table / indirect block maps, fronted by the sharded buffer
// cache with write-behind and sequential readahead. It is the default
// backend, the one that always exists (the control object and the
// needle engine's metadata objects live in it as partition-0 raw
// objects), and the only one supporting copy-on-write versions.
type classicBackend struct {
	lay   *layout.Store
	cache *cache.BlockCache
	cfg   *Config
	quota quotaAccount

	// reads counts object-level reads served, the denominator of the
	// classic media-I/O-per-read gauge. Nil when metrics are disabled.
	reads *telemetry.Counter
}

func newClassicBackend(lay *layout.Store, c *cache.BlockCache, cfg *Config, quota quotaAccount) *classicBackend {
	cb := &classicBackend{lay: lay, cache: c, cfg: cfg, quota: quota}
	if reg := cfg.Metrics; reg != nil {
		cb.reads = reg.Counter("object.classic.reads")
		// Media I/Os per object read, in thousandths: device reads by
		// the cache (misses) plus the layout engine's direct metadata
		// reads (onodes, indirect blocks), over object reads served.
		// Approximate under mixed workloads (writes also miss), exact
		// for read-only phases — which is how the smallobj bench uses
		// it.
		reg.Func("object.classic.media_per_read_milli", func() int64 {
			n := int64(cb.reads.Load())
			if n == 0 {
				return 0
			}
			return (c.Stats().Misses + lay.DevReads()) * 1000 / n
		})
	}
	return cb
}

// Kind implements StoreBackend.
func (c *classicBackend) Kind() BackendKind { return BackendClassic }

// lookup resolves (part, obj) to its onode. The caller holds the
// object's lock (either mode), which is what keeps the onode stable
// until the operation completes. Partition existence is checked by the
// Store before dispatch.
func (c *classicBackend) lookup(part uint16, obj uint64) (int64, layout.Onode, error) {
	idx, ok := c.lay.FindOnode(obj)
	if !ok {
		return 0, layout.Onode{}, ErrNoObject
	}
	o, err := c.lay.ReadOnode(idx)
	if err != nil {
		return 0, layout.Onode{}, err
	}
	if o.Partition != part {
		return 0, layout.Onode{}, ErrNoObject
	}
	return idx, o, nil
}

// footprint counts the block references owned by an object (data plus
// indirect blocks).
func (c *classicBackend) footprint(o *layout.Onode) int64 {
	var n int64
	_ = c.lay.ForEachBlock(o, func(int64, bool) error { n++; return nil })
	return n
}

// classicCharge is the quota rule for a classic object: its footprint
// (block references, data plus indirect) or its capacity reservation
// (Prealloc bytes in blocks of bs), whichever is larger. Reserved space
// is charged up front so preallocated writes can never fail on quota.
// The live accounting and the mount-time census both apply it.
func classicCharge(footprint int64, prealloc uint64, bs int64) int64 {
	if res := int64((prealloc + uint64(bs) - 1) / uint64(bs)); res > footprint {
		return res
	}
	return footprint
}

// chargeOf is what quotas charge for an object, from a walk of its
// block map.
func (c *classicBackend) chargeOf(o *layout.Onode) int64 {
	return classicCharge(c.footprint(o), o.Prealloc, c.lay.BlockSize())
}

// chargeBase returns o's footprint where the charge rule needs it to
// price a change (see chargeDelta), and 0 without walking elsewhere.
func (c *classicBackend) chargeBase(o *layout.Onode) int64 {
	if o.Prealloc == 0 {
		return 0
	}
	return c.footprint(o)
}

// chargeDelta is the change in o's charge when its footprint moves by
// delta references from base (chargeBase's result). Without a capacity
// reservation the charge is the footprint, so the change is delta
// itself; only under one does it depend on where the footprint stands.
// Mutators price their effect this way from the references they added
// or dropped, instead of walking the object before and after.
func (c *classicBackend) chargeDelta(o *layout.Onode, base, delta int64) int64 {
	if o.Prealloc == 0 {
		return delta
	}
	bs := c.lay.BlockSize()
	return classicCharge(base+delta, o.Prealloc, bs) - classicCharge(base, o.Prealloc, bs)
}

// Charge implements StoreBackend.
func (c *classicBackend) Charge(part uint16, obj uint64) (int64, error) {
	_, o, err := c.lookup(part, obj)
	if err != nil {
		return 0, err
	}
	return c.chargeOf(&o), nil
}

// reserve updates an object's capacity reservation, charging or
// refunding the partition. Caller holds the object's exclusive lock and
// persists the onode.
func (c *classicBackend) reserve(o *layout.Onode, prealloc uint64) error {
	fp, bs := c.footprint(o), c.lay.BlockSize()
	delta := classicCharge(fp, prealloc, bs) - classicCharge(fp, o.Prealloc, bs)
	if err := c.quota.chargeBlocks(o.Partition, delta); err != nil {
		return err
	}
	o.Prealloc = prealloc
	return nil
}

// clusterHint returns an allocation hint near the object this one is
// linked to (the clustering attribute of Section 4.1), or 0. The target
// object is read without its lock — the hint is advisory, and a
// concurrently mutating target only yields a stale hint.
func (c *classicBackend) clusterHint(o *layout.Onode) int64 {
	if o.Cluster == 0 {
		return 0
	}
	idx, ok := c.lay.FindOnode(o.Cluster)
	if !ok {
		return 0
	}
	t, err := c.lay.ReadOnode(idx)
	if err != nil {
		return 0
	}
	var hint int64
	_ = c.lay.ForEachBlock(&t, func(phys int64, isPtr bool) error {
		if !isPtr && phys+1 > hint {
			hint = phys + 1
		}
		return nil
	})
	return hint
}

// --- Object lifecycle ---------------------------------------------------

// Create implements StoreBackend. The new object is invisible until its
// onode is written, so no object lock is needed.
func (c *classicBackend) Create(part uint16, id uint64) error {
	idx, err := c.lay.AllocOnode()
	if err != nil {
		return err
	}
	now := c.cfg.Clock().Unix()
	o := layout.Onode{
		ObjectID:   id,
		Partition:  part,
		Version:    1,
		CreateSec:  now,
		ModSec:     now,
		AttrModSec: now,
	}
	return c.lay.WriteOnode(idx, &o)
}

// Remove implements StoreBackend: it deletes the object, releases its
// blocks, and returns the quota charge freed.
func (c *classicBackend) Remove(part uint16, obj uint64) (int64, error) {
	idx, o, err := c.lookup(part, obj)
	if err != nil {
		return 0, err
	}
	// Invalidate cache entries for blocks about to become free so a
	// later reallocation cannot observe stale contents; the same walk
	// measures the footprint the charge is priced from.
	var fp int64
	if err := c.lay.ForEachBlock(&o, func(phys int64, isPtr bool) error {
		fp++
		if !isPtr && c.lay.RefCount(phys) == 1 {
			c.cache.Invalidate(phys)
		}
		return nil
	}); err != nil {
		return 0, err
	}
	charge := classicCharge(fp, o.Prealloc, c.lay.BlockSize())
	if err := c.lay.FreeObjectBlocks(&o); err != nil {
		return 0, err
	}
	if err := c.lay.WriteOnode(idx, &layout.Onode{}); err != nil {
		return 0, err
	}
	return charge, nil
}

// List implements StoreBackend.
func (c *classicBackend) List(part uint16) ([]uint64, error) {
	return c.lay.ObjectIDs(part), nil
}

// --- Attributes ----------------------------------------------------------

// GetAttr implements StoreBackend.
func (c *classicBackend) GetAttr(part uint16, obj uint64) (Attributes, error) {
	_, o, err := c.lookup(part, obj)
	if err != nil {
		return Attributes{}, err
	}
	return attrsFromOnode(&o), nil
}

func attrsFromOnode(o *layout.Onode) Attributes {
	return Attributes{
		Size:        o.Size,
		Version:     o.Version,
		CreateTime:  time.Unix(o.CreateSec, 0).UTC(),
		ModTime:     time.Unix(o.ModSec, 0).UTC(),
		AttrModTime: time.Unix(o.AttrModSec, 0).UTC(),
		Prealloc:    o.Prealloc,
		Cluster:     o.Cluster,
		Uninterp:    o.Uninterp,
	}
}

// SetAttr implements StoreBackend.
func (c *classicBackend) SetAttr(part uint16, obj uint64, a Attributes, mask SetAttrMask) error {
	idx, o, err := c.lookup(part, obj)
	if err != nil {
		return err
	}
	if mask&SetSize != 0 && a.Size != o.Size {
		if err := c.truncate(&o, a.Size); err != nil {
			return err
		}
		o.ModSec = c.cfg.Clock().Unix()
	}
	if mask&SetVersion != 0 {
		o.Version = a.Version
	}
	if mask&SetPrealloc != 0 {
		// Capacity reservation (Section 4.1: "allow capacity to be
		// reserved"): charge the partition for the reserved blocks now
		// so later writes cannot fail on quota, and refuse reservations
		// the quota cannot cover.
		if err := c.reserve(&o, a.Prealloc); err != nil {
			return err
		}
	}
	if mask&SetCluster != 0 {
		o.Cluster = a.Cluster
	}
	if mask&SetUninterp != 0 {
		o.Uninterp = a.Uninterp
	}
	if mask&SetModTime != 0 {
		o.ModSec = a.ModTime.Unix()
	}
	o.AttrModSec = c.cfg.Clock().Unix()
	return c.lay.WriteOnode(idx, &o)
}

// truncate resizes o in place, freeing or leaving holes. Caller holds
// the object's exclusive lock and persists the onode afterwards.
func (c *classicBackend) truncate(o *layout.Onode, newSize uint64) error {
	bs := uint64(c.lay.BlockSize())
	if newSize > c.lay.MaxObjectSize() {
		return layout.ErrTooBig
	}
	base := c.chargeBase(o)
	var delta int64 // references gained, net of those dropped
	if newSize < o.Size {
		first := (newSize + bs - 1) / bs // first block to drop
		last := (o.Size + bs - 1) / bs
		for fb := first; fb < last; fb++ {
			phys, err := c.lay.BMap(o, int64(fb))
			if err != nil {
				return err
			}
			if phys != 0 && c.lay.RefCount(phys) == 1 {
				c.cache.Invalidate(phys)
			}
			cur, err := c.lay.UnmapBlock(o, int64(fb))
			if err != nil {
				return err
			}
			if cur != 0 {
				delta--
			}
		}
		// Zero the tail of the new last block so growth re-reads zeros.
		if newSize%bs != 0 {
			phys, err := c.lay.BMap(o, int64(newSize/bs))
			if err != nil {
				return err
			}
			if phys != 0 {
				buf := make([]byte, bs)
				if err := c.cache.ReadBlock(phys, buf); err != nil {
					return err
				}
				for i := newSize % bs; i < bs; i++ {
					buf[i] = 0
				}
				// Shared blocks must be unshared before zeroing.
				np, n, err := c.lay.BMapAlloc(o, int64(newSize/bs), phys)
				delta += n
				if err != nil {
					return err
				}
				if err := c.cache.WriteBlock(np, buf); err != nil {
					return err
				}
			}
		}
	}
	o.Size = newSize
	c.quota.settleBlocks(o.Partition, c.chargeDelta(o, base, delta))
	return nil
}

// --- Data access ---------------------------------------------------------

// Read implements StoreBackend. Sequential access (tracked by seq)
// triggers readahead into the cache.
func (c *classicBackend) Read(part uint16, obj uint64, off uint64, n int, seq *SeqTracker) ([]byte, error) {
	_, o, err := c.lookup(part, obj)
	if err != nil {
		return nil, err
	}
	if c.reads != nil {
		c.reads.Inc()
	}
	if off >= o.Size {
		return nil, nil
	}
	if max := o.Size - off; uint64(n) > max {
		n = int(max)
	}
	bs := uint64(c.lay.BlockSize())
	// Pooled result, filled straight from cached blocks under the shard
	// lock (cache.ReadRange): one copy from cache memory to the reply
	// buffer, no per-block bounce buffer. Ownership passes to the
	// caller; the drive returns it to the pool once the reply is on the
	// wire.
	out := bufpool.Get(n)
	for done := 0; done < n; {
		cur := off + uint64(done)
		fb := int64(cur / bs)
		within := cur % bs
		chunk := int(bs - within)
		if chunk > n-done {
			chunk = n - done
		}
		phys, err := c.lay.BMap(&o, fb)
		if err != nil {
			bufpool.Put(out)
			return nil, err
		}
		if phys == 0 {
			for i := 0; i < chunk; i++ {
				out[done+i] = 0
			}
		} else {
			if err := c.cache.ReadRange(phys, int(within), out[done:done+chunk]); err != nil {
				bufpool.Put(out)
				return nil, err
			}
		}
		done += chunk
	}
	c.readahead(seq, &o, off, uint64(n))
	return out, nil
}

// readahead detects sequential access and prefetches ahead. The
// sequential tracker lives in the object's lock entry; the caller holds
// at least the read side of that entry, and the tracker's own mutex
// orders concurrent readers' updates.
func (c *classicBackend) readahead(seq *SeqTracker, o *layout.Onode, off, n uint64) {
	if c.cfg.ReadaheadBlocks == 0 {
		return
	}
	if !seq.Advance(off, n) {
		return
	}
	bs := uint64(c.lay.BlockSize())
	startFB := int64((off + n + bs - 1) / bs)
	var blocks []int64
	for i := 0; i < c.cfg.ReadaheadBlocks; i++ {
		fb := startFB + int64(i)
		if uint64(fb)*bs >= o.Size {
			break
		}
		phys, err := c.lay.BMap(o, fb)
		if err != nil || phys == 0 {
			continue
		}
		blocks = append(blocks, phys)
	}
	c.cache.Prefetch(blocks)
}

// Write implements StoreBackend. Data writes are write-behind: they
// reach the device on eviction or Flush. Quota admission reserves
// worst-case blocks up front so concurrent writers cannot jointly
// overshoot a partition quota, and the reservation is settled from the
// references the write actually added, so the metadata work of a write
// is proportional to the write, not to the object.
func (c *classicBackend) Write(part uint16, obj uint64, off uint64, data []byte) error {
	idx, o, err := c.lookup(part, obj)
	if err != nil {
		return err
	}
	end := off + uint64(len(data))
	if end < off || end > c.lay.MaxObjectSize() {
		return ErrBadRange
	}
	bs := uint64(c.lay.BlockSize())
	base := c.chargeBase(&o)

	// Quota admission: estimate the worst-case new blocks (holes in the
	// written range plus up to three indirect blocks), net of the
	// object's capacity reservation, and reserve them against the
	// partition before writing.
	var reserved int64
	if c.quota.quotaed(part) {
		var holes int64 = 3 // worst-case new indirect blocks
		for fb := off / bs; fb*bs < end; fb++ {
			phys, err := c.lay.BMap(&o, int64(fb))
			if err != nil {
				return err
			}
			if phys == 0 {
				holes++
			}
		}
		if need := c.chargeDelta(&o, base, holes); need > 0 {
			if err := c.quota.chargeBlocks(part, need); err != nil {
				return err
			}
			reserved = need
		}
	}

	added, werr := c.writeRange(&o, off, data)
	if werr == nil {
		if end > o.Size {
			o.Size = end
		}
		o.ModSec = c.cfg.Clock().Unix()
	}
	// Settle the reservation against what the object actually grew by —
	// also on error, since blocks mapped before the failure stay
	// allocated and writeRange counts them.
	c.quota.settleBlocks(part, c.chargeDelta(&o, base, added)-reserved)
	// Persist the onode even after a partial failure so blocks mapped
	// before the error are not orphaned.
	if perr := c.lay.WriteOnode(idx, &o); werr == nil {
		werr = perr
	}
	return werr
}

// writeRange maps and writes the block range of one write and returns
// the block references the object gained (see layout.BMapAlloc), also
// on error. Caller holds the object's exclusive lock and persists the
// onode.
func (c *classicBackend) writeRange(o *layout.Onode, off uint64, data []byte) (int64, error) {
	bs := uint64(c.lay.BlockSize())
	// Allocation hint: the block after the previous file block's, so an
	// object grows contiguously. The write's first block looks its
	// predecessor up; every later one takes it from the iteration
	// before. A failed lookup only costs the hint — the allocation walk
	// below reports real errors.
	var prev int64
	if fb := int64(off / bs); fb > 0 {
		prev, _ = c.lay.BMap(o, fb-1)
	}
	// A block with no mapped predecessor is placed near the object this
	// one is clustered with (Section 4.1). Finding that spot walks the
	// target's block map, so it is done at most once per write and only
	// when such a block is reached.
	cluster, clusterKnown := int64(0), false
	var added int64
	var buf []byte // pooled RMW bounce buffer for partial blocks only
	defer func() { bufpool.Put(buf) }()
	for done := 0; done < len(data); {
		cur := off + uint64(done)
		fb := int64(cur / bs)
		within := cur % bs
		chunk := int(bs - within)
		if chunk > len(data)-done {
			chunk = len(data) - done
		}
		hint := prev + 1
		if prev == 0 {
			if !clusterKnown {
				cluster, clusterKnown = c.clusterHint(o), true
			}
			hint = cluster
		}
		phys, n, err := c.lay.BMapAlloc(o, fb, hint)
		added += n
		if err != nil {
			return added, err
		}
		prev = phys
		if within == 0 && chunk == int(bs) {
			// Full block: hand the caller's bytes straight to the cache
			// (which copies into its own pooled entry) — no bounce copy.
			if err := c.cache.WriteBlock(phys, data[done:done+chunk]); err != nil {
				return added, err
			}
			done += chunk
			continue
		}
		// Partial block: read-modify-write. A block that was a hole
		// before this write (the allocation added a reference) contains
		// whatever a previous owner left there, so zero-fill it instead
		// of reading.
		if buf == nil {
			buf = bufpool.Get(int(bs))
		}
		if n > 0 {
			for i := range buf {
				buf[i] = 0
			}
		} else if err := c.cache.ReadBlock(phys, buf); err != nil {
			return added, err
		}
		copy(buf[within:], data[done:done+chunk])
		if err := c.cache.WriteBlock(phys, buf); err != nil {
			return added, err
		}
		done += chunk
	}
	return added, nil
}

// VersionObject implements StoreBackend: it creates a copy-on-write
// version (snapshot) sharing all data blocks with the original until
// either side writes. Quota admission and object-count accounting for
// the clone happen in the Store above; the caller holds the source's
// exclusive lock.
func (c *classicBackend) VersionObject(part uint16, obj uint64) (uint64, error) {
	_, o, err := c.lookup(part, obj)
	if err != nil {
		return 0, err
	}
	idx, err := c.lay.AllocOnode()
	if err != nil {
		return 0, err
	}
	if err := c.lay.CloneOnodeBlocks(&o); err != nil {
		return 0, err
	}
	clone := o
	clone.ObjectID = c.lay.NextObjectID()
	clone.Version = 1
	clone.CreateSec = c.cfg.Clock().Unix()
	if err := c.lay.WriteOnode(idx, &clone); err != nil {
		return 0, err
	}
	return clone.ObjectID, nil
}

// Flush implements StoreBackend: it forces write-behind cache data to
// the device. The layout's own metadata sync happens once, in
// Store.Flush, after every backend has flushed.
func (c *classicBackend) Flush() error {
	return c.cache.Flush()
}

// --- Raw partition-0 objects --------------------------------------------
//
// The Store persists its own metadata — the partition table in the
// control object, and the needle engine's segment tables and index
// snapshots — as raw partition-0 objects in the classic engine,
// bypassing partition/quota logic. Callers hold pmu.

// writeRaw replaces an onode's data with data.
func (c *classicBackend) writeRaw(o *layout.Onode, data []byte) error {
	bs := int(c.lay.BlockSize())
	buf := make([]byte, bs)
	for done := 0; done < len(data); done += bs {
		fb := int64(done / bs)
		phys, _, err := c.lay.BMapAlloc(o, fb, 0)
		if err != nil {
			return err
		}
		n := copy(buf, data[done:])
		for i := n; i < bs; i++ {
			buf[i] = 0
		}
		if err := c.cache.WriteBlock(phys, buf); err != nil {
			return err
		}
	}
	// Drop blocks past the new end so raw objects can shrink.
	if o.Size > uint64(len(data)) {
		first := (int64(len(data)) + int64(bs) - 1) / int64(bs)
		last := (int64(o.Size) + int64(bs) - 1) / int64(bs)
		for fb := first; fb < last; fb++ {
			if _, err := c.lay.UnmapBlock(o, fb); err != nil {
				return err
			}
		}
	}
	o.Size = uint64(len(data))
	return nil
}

// readRaw reads an onode's full contents.
func (c *classicBackend) readRaw(o *layout.Onode) ([]byte, error) {
	bs := int(c.lay.BlockSize())
	out := make([]byte, o.Size)
	buf := make([]byte, bs)
	for done := 0; done < len(out); done += bs {
		fb := int64(done / bs)
		phys, err := c.lay.BMap(o, fb)
		if err != nil {
			return nil, err
		}
		if phys == 0 {
			continue
		}
		if err := c.cache.ReadBlock(phys, buf); err != nil {
			return nil, err
		}
		copy(out[done:], buf)
	}
	return out, nil
}

// createRaw allocates a fresh partition-0 object and returns its ID.
func (c *classicBackend) createRaw() (uint64, error) {
	id := c.lay.NextObjectID()
	idx, err := c.lay.AllocOnode()
	if err != nil {
		return 0, err
	}
	o := layout.Onode{ObjectID: id, Partition: 0, Version: 1}
	if err := c.lay.WriteOnode(idx, &o); err != nil {
		return 0, err
	}
	return id, nil
}

// saveRaw replaces the contents of partition-0 object id.
func (c *classicBackend) saveRaw(id uint64, data []byte) error {
	idx, ok := c.lay.FindOnode(id)
	if !ok {
		return ErrNoObject
	}
	o, err := c.lay.ReadOnode(idx)
	if err != nil {
		return err
	}
	if err := c.writeRaw(&o, data); err != nil {
		return err
	}
	return c.lay.WriteOnode(idx, &o)
}

// loadRaw returns the contents of partition-0 object id.
func (c *classicBackend) loadRaw(id uint64) ([]byte, error) {
	idx, ok := c.lay.FindOnode(id)
	if !ok {
		return nil, ErrNoObject
	}
	o, err := c.lay.ReadOnode(idx)
	if err != nil {
		return nil, err
	}
	return c.readRaw(&o)
}

// removeRaw deletes partition-0 object id and frees its blocks.
func (c *classicBackend) removeRaw(id uint64) error {
	_, err := c.Remove(0, id)
	return err
}

var _ StoreBackend = (*classicBackend)(nil)
