package cache

import (
	"container/list"
	"fmt"
	"sync"

	"nasd/internal/blockdev"
	"nasd/internal/bufpool"
	"nasd/internal/telemetry"
)

// Stats counts cache activity.
type Stats struct {
	Hits       int64
	Misses     int64
	Prefetches int64
	Evictions  int64
	WriteBacks int64
}

func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Prefetches += o.Prefetches
	s.Evictions += o.Evictions
	s.WriteBacks += o.WriteBacks
}

type entry struct {
	block int64
	data  []byte
	dirty bool
	elem  *list.Element
}

// DefaultShards is how many independently locked shards New creates
// (clamped to the capacity, so tiny caches degenerate gracefully to a
// single shard).
const DefaultShards = 16

// BlockCache is an LRU cache over a block device, sharded by block
// number so lookups of blocks on different shards never serialize:
// each shard has its own mutex, LRU list, and slice of the capacity.
// Within a shard, a miss releases the shard lock while it fills from
// the device, so a slow media read stalls only requests for the same
// block's shard map — not the whole cache — and hits proceed while
// other shards fill. Consecutive physical blocks land on consecutive
// shards, which spreads a sequential scan across every lock.
//
// In the store's lock hierarchy the cache sits below the object and
// partition locks and above the layout allocator (DESIGN.md §4): a
// shard mutex may be taken while holding those, and never the reverse.
type BlockCache struct {
	dev    blockdev.Device
	shards []*cacheShard
	meter  *telemetry.LockMeter
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[int64]*entry
	lru      *list.List // front = most recent
	stats    Stats
}

// New returns a cache holding up to capacity blocks of dev, sharded
// DefaultShards ways.
func New(dev blockdev.Device, capacity int) *BlockCache {
	return NewSharded(dev, capacity, DefaultShards)
}

// NewSharded returns a cache with an explicit shard count (clamped to
// [1, capacity]). One shard gives the exact global-LRU behavior of the
// unsharded design; more shards trade per-shard LRU approximation for
// lock independence.
func NewSharded(dev blockdev.Device, capacity, shards int) *BlockCache {
	if capacity < 1 {
		panic("cache: capacity must be >= 1")
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &BlockCache{dev: dev, shards: make([]*cacheShard, shards)}
	for i := range c.shards {
		// Distribute capacity as evenly as possible; early shards take
		// the remainder.
		per := capacity / shards
		if i < capacity%shards {
			per++
		}
		c.shards[i] = &cacheShard{
			capacity: per,
			entries:  make(map[int64]*entry),
			lru:      list.New(),
		}
	}
	return c
}

// SetLockMeter wires contention telemetry for every shard mutex (all
// shards share the one meter). Call before concurrent use.
func (c *BlockCache) SetLockMeter(m *telemetry.LockMeter) { c.meter = m }

// shardOf maps a block to its shard. Plain modulo: physical blocks are
// allocated in runs, so neighbors go to different shards.
func (c *BlockCache) shardOf(block int64) *cacheShard {
	if block < 0 {
		block = -block
	}
	return c.shards[block%int64(len(c.shards))]
}

// Shards returns the shard count.
func (c *BlockCache) Shards() int { return len(c.shards) }

// Capacity returns the capacity in blocks.
func (c *BlockCache) Capacity() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.capacity
	}
	return n
}

// Len returns the number of cached blocks.
func (c *BlockCache) Len() int {
	n := 0
	for _, sh := range c.shards {
		c.meter.Lock(&sh.mu)
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns the counters summed over every shard.
func (c *BlockCache) Stats() Stats {
	var st Stats
	for _, sh := range c.shards {
		c.meter.Lock(&sh.mu)
		st.add(sh.stats)
		sh.mu.Unlock()
	}
	return st
}

// Contains reports whether block is currently cached (does not touch
// recency).
func (c *BlockCache) Contains(block int64) bool {
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	_, ok := sh.entries[block]
	return ok
}

// touch must be called with the shard mutex held.
func (sh *cacheShard) touch(e *entry) { sh.lru.MoveToFront(e.elem) }

// insert adds a block, evicting as needed. Caller holds the shard
// mutex.
func (sh *cacheShard) insert(dev blockdev.Device, block int64, data []byte, dirty bool) (*entry, error) {
	for len(sh.entries) >= sh.capacity {
		if err := sh.evictOldest(dev); err != nil {
			return nil, err
		}
	}
	e := &entry{block: block, data: data, dirty: dirty}
	e.elem = sh.lru.PushFront(e)
	sh.entries[block] = e
	return e, nil
}

// evictOldest removes the shard's LRU entry, writing it back if dirty,
// and returns its pooled buffer. Caller holds the shard mutex.
func (sh *cacheShard) evictOldest(dev blockdev.Device) error {
	back := sh.lru.Back()
	if back == nil {
		return fmt.Errorf("cache: eviction with empty LRU")
	}
	e := back.Value.(*entry)
	if e.dirty {
		if err := dev.WriteBlock(e.block, e.data); err != nil {
			return err
		}
		sh.stats.WriteBacks++
	}
	sh.lru.Remove(back)
	delete(sh.entries, e.block)
	sh.stats.Evictions++
	// The device has its own copy (write-back above, or the block was
	// clean); nothing references entry memory outside the shard lock.
	bufpool.Put(e.data)
	e.data = nil
	return nil
}

// ReadBlock reads block through the cache into buf. A miss fills from
// the device with the shard unlocked; if a concurrent writer installed
// the block meanwhile, the cached (newer) contents win.
func (c *BlockCache) ReadBlock(block int64, buf []byte) error {
	return c.ReadRange(block, 0, buf)
}

// ReadRange reads len(dst) bytes starting at byte offset off within
// block, copying directly from the cached block to dst under the shard
// lock — the single copy on the cached-read path. A miss fills a
// pooled block from the device with the shard unlocked, exactly like
// ReadBlock.
func (c *BlockCache) ReadRange(block int64, off int, dst []byte) error {
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	if e, ok := sh.entries[block]; ok {
		sh.touch(e)
		sh.stats.Hits++
		copy(dst, e.data[off:])
		sh.mu.Unlock()
		return nil
	}
	sh.stats.Misses++
	sh.mu.Unlock()
	data := bufpool.Get(c.dev.BlockSize())
	if err := c.dev.ReadBlock(block, data); err != nil {
		bufpool.Put(data)
		return err
	}
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	if e, ok := sh.entries[block]; ok {
		// Raced with another fill or a write; the resident entry is at
		// least as new as what we read.
		sh.touch(e)
		copy(dst, e.data[off:])
		bufpool.Put(data)
		return nil
	}
	if _, err := sh.insert(c.dev, block, data, false); err != nil {
		bufpool.Put(data)
		return err
	}
	copy(dst, data[off:])
	return nil
}

// WriteBlock writes buf to block through the cache. The block is left
// dirty and reaches the device on eviction or Flush (write-behind). The
// cached copy lives in pooled memory owned by the cache; buf is never
// retained.
func (c *BlockCache) WriteBlock(block int64, buf []byte) error {
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	if e, ok := sh.entries[block]; ok {
		if len(e.data) == len(buf) {
			copy(e.data, buf)
		} else {
			bufpool.Put(e.data)
			e.data = bufpool.Get(len(buf))
			copy(e.data, buf)
		}
		e.dirty = true
		sh.touch(e)
	} else {
		data := bufpool.Get(len(buf))
		copy(data, buf)
		if _, err := sh.insert(c.dev, block, data, true); err != nil {
			bufpool.Put(data)
			return err
		}
	}
	return nil
}

// Prefetch loads blocks into the cache if absent. It is the mechanism
// the object layer uses for sequential readahead. Errors on individual
// blocks are ignored (prefetch is advisory); the count of blocks
// actually fetched is returned. Like ReadBlock, fills happen with the
// shard unlocked.
func (c *BlockCache) Prefetch(blocks []int64) int {
	n := 0
	for _, b := range blocks {
		sh := c.shardOf(b)
		c.meter.Lock(&sh.mu)
		_, ok := sh.entries[b]
		sh.mu.Unlock()
		if ok {
			continue
		}
		data := bufpool.Get(c.dev.BlockSize())
		if err := c.dev.ReadBlock(b, data); err != nil {
			bufpool.Put(data)
			continue
		}
		c.meter.Lock(&sh.mu)
		if _, ok := sh.entries[b]; !ok {
			if _, err := sh.insert(c.dev, b, data, false); err != nil {
				sh.mu.Unlock()
				bufpool.Put(data)
				break
			}
			sh.stats.Prefetches++
			n++
		} else {
			bufpool.Put(data)
		}
		sh.mu.Unlock()
	}
	return n
}

// Invalidate drops a block from the cache without writing it back.
// Use when the block has been freed.
func (c *BlockCache) Invalidate(block int64) {
	sh := c.shardOf(block)
	c.meter.Lock(&sh.mu)
	defer sh.mu.Unlock()
	if e, ok := sh.entries[block]; ok {
		sh.lru.Remove(e.elem)
		delete(sh.entries, block)
		bufpool.Put(e.data)
		e.data = nil
	}
}

// Flush writes every dirty block back to the device and flushes it.
func (c *BlockCache) Flush() error {
	for _, sh := range c.shards {
		c.meter.Lock(&sh.mu)
		for _, e := range sh.entries {
			if e.dirty {
				if err := c.dev.WriteBlock(e.block, e.data); err != nil {
					sh.mu.Unlock()
					return err
				}
				e.dirty = false
				sh.stats.WriteBacks++
			}
		}
		sh.mu.Unlock()
	}
	return c.dev.Flush()
}

// DirtyCount returns the number of dirty cached blocks.
func (c *BlockCache) DirtyCount() int {
	n := 0
	for _, sh := range c.shards {
		c.meter.Lock(&sh.mu)
		for _, e := range sh.entries {
			if e.dirty {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
