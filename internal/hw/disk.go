package hw

import (
	"time"

	"nasd/internal/sim"
)

// DiskParams parameterizes a mechanical disk model. The model captures
// what mattered to the paper's experiments: random access penalties,
// sustained media rate, faster transfers from the track cache, firmware
// readahead that keeps the media busy during host think time, and
// write-behind caching ("these drives have write-behind caching
// enabled").
type DiskParams struct {
	Name string
	// CtrlOverhead is fixed firmware/command time per request.
	CtrlOverhead time.Duration
	// RandomAccess is the average positioning time (seek + half
	// rotation) charged when a request breaks sequentiality.
	RandomAccess time.Duration
	// MediaMBps is the sustained media transfer rate (MB/s, 10^6).
	MediaMBps float64
	// BusMBps is the transfer rate from the drive cache over its
	// interface (MB/s).
	BusMBps float64
	// SegmentBytes is the readahead segment size: how far the firmware
	// reads ahead of the host.
	SegmentBytes int64
	// CacheBytes is the write-behind cache size.
	CacheBytes int64
	// WriteBehind enables write acknowledgement from cache.
	WriteBehind bool
}

// Drive presets. Medallist and Cheetah rates come from the paper
// (dual Medallists supply "the raw 7.5 MB/s"; Cheetahs are "13.5 MB/s");
// the Barracuda parameters are fit to the four microbenchmarks quoted
// under Table 1 (0.30/9.4 ms single sector cached/random, 2.2/11.1 ms
// 64 KB cached/random).
var (
	// MedallistST52160 is one of the prototype's two drive disks.
	MedallistST52160 = DiskParams{
		Name:         "Seagate Medallist ST52160",
		CtrlOverhead: 500 * time.Microsecond,
		RandomAccess: 12 * time.Millisecond, // 5400 RPM class, average stroke
		MediaMBps:    3.75,
		BusMBps:      5, // each Medallist sits on its own 5 MB/s SCSI bus
		SegmentBytes: 128 << 10,
		CacheBytes:   512 << 10,
		WriteBehind:  true,
	}
	// CheetahST34501W is the NFS server's disk in Figure 9.
	CheetahST34501W = DiskParams{
		Name:         "Seagate Cheetah ST34501W",
		CtrlOverhead: 300 * time.Microsecond,
		RandomAccess: 8 * time.Millisecond, // 10000 RPM class
		MediaMBps:    13.5,
		BusMBps:      40, // Wide UltraSCSI
		SegmentBytes: 256 << 10,
		CacheBytes:   512 << 10,
		WriteBehind:  true,
	}
	// BarracudaST34371W reproduces the microbenchmarks in Table 1's
	// caption.
	BarracudaST34371W = DiskParams{
		Name:         "Seagate Barracuda ST34371W",
		CtrlOverhead: 285 * time.Microsecond,
		RandomAccess: 9100 * time.Microsecond,
		MediaMBps:    38, // effective readahead-assisted media stream
		BusMBps:      34,
		SegmentBytes: 256 << 10,
		CacheBytes:   512 << 10,
		WriteBehind:  true,
	}
)

// Disk is a mechanical disk instance. Byte offsets are logical; the
// model cares only about sequentiality, not geometry.
type Disk struct {
	env    *sim.Env
	p      DiskParams
	mech   *sim.Resource // the single actuator/media mechanism
	seqPos int64         // next sequential byte offset
	ahead  int64         // bytes of readahead available beyond seqPos
	dirty  int64         // write-behind bytes not yet on media
	last   time.Duration // completion time of the previous request

	// Counters.
	reads, writes int64
	bytesRead     int64
	bytesWritten  int64
	seeks         int64
}

// NewDisk creates a disk from params.
func NewDisk(env *sim.Env, params DiskParams) *Disk {
	return &Disk{env: env, p: params, mech: env.NewResource(params.Name, 1), seqPos: -1}
}

// Stats returns operation counters.
func (d *Disk) Stats() (reads, writes, bytesRead, bytesWritten, seeks int64) {
	return d.reads, d.writes, d.bytesRead, d.bytesWritten, d.seeks
}

func dur(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

// catchUp advances background work done since the last request: the
// firmware refills the readahead segment and drains the write-behind
// cache while the host thinks.
func (d *Disk) catchUp() {
	now := d.env.Now()
	if now <= d.last {
		return
	}
	idle := (now - d.last).Seconds()
	work := int64(idle * d.p.MediaMBps * MB)
	// Drain dirty data first (destage has priority), then read ahead.
	drain := work
	if drain > d.dirty {
		drain = d.dirty
	}
	d.dirty -= drain
	work -= drain
	if d.seqPos >= 0 {
		d.ahead += work
		if d.ahead > d.p.SegmentBytes {
			d.ahead = d.p.SegmentBytes
		}
	}
	d.last = now
}

// Read performs a read of n bytes at byte offset off, charging simulated
// time for positioning, media, and interface transfers.
func (d *Disk) Read(p *sim.Proc, off int64, n int) {
	d.mech.Acquire(p)
	d.catchUp()
	var t time.Duration = d.p.CtrlOverhead
	sequential := off == d.seqPos
	if !sequential {
		t += d.p.RandomAccess
		d.ahead = 0
		d.seeks++
	}
	remaining := int64(n)
	// Satisfy what the readahead segment already holds at bus rate.
	if sequential && d.ahead > 0 {
		fromCache := d.ahead
		if fromCache > remaining {
			fromCache = remaining
		}
		t += dur(float64(fromCache) / (d.p.BusMBps * MB))
		d.ahead -= fromCache
		remaining -= fromCache
	}
	// The rest streams from the media.
	if remaining > 0 {
		t += dur(float64(remaining) / (d.p.MediaMBps * MB))
	}
	p.Wait(t)
	d.seqPos = off + int64(n)
	d.reads++
	d.bytesRead += int64(n)
	d.last = p.Now()
	d.mech.Release()
}

// Write performs a write of n bytes at byte offset off. With
// write-behind enabled, writes complete at interface speed while cache
// space remains; overflow is charged at media speed.
func (d *Disk) Write(p *sim.Proc, off int64, n int) {
	d.mech.Acquire(p)
	d.catchUp()
	var t time.Duration = d.p.CtrlOverhead
	sequential := off == d.seqPos
	if !sequential && !d.p.WriteBehind {
		t += d.p.RandomAccess
		d.seeks++
	}
	remaining := int64(n)
	if d.p.WriteBehind {
		space := d.p.CacheBytes - d.dirty
		if space < 0 {
			space = 0
		}
		buffered := remaining
		if buffered > space {
			buffered = space
		}
		t += dur(float64(buffered) / (d.p.BusMBps * MB))
		d.dirty += buffered
		remaining -= buffered
	}
	if remaining > 0 {
		if !sequential && d.p.WriteBehind {
			// Cache overflowed: the mechanism must position after all.
			t += d.p.RandomAccess
			d.seeks++
		}
		t += dur(float64(remaining) / (d.p.MediaMBps * MB))
	}
	p.Wait(t)
	d.seqPos = off + int64(n)
	d.writes++
	d.bytesWritten += int64(n)
	d.last = p.Now()
	d.mech.Release()
}

// Flush drains the write-behind cache to media.
func (d *Disk) Flush(p *sim.Proc) {
	d.mech.Acquire(p)
	d.catchUp()
	if d.dirty > 0 {
		p.Wait(dur(float64(d.dirty) / (d.p.MediaMBps * MB)))
		d.dirty = 0
	}
	d.last = p.Now()
	d.mech.Release()
}

// StripeDisk aggregates several disks with a byte-granular stripe unit,
// like the prototype's software striping driver over two Medallists.
type StripeDisk struct {
	Disks []*Disk
	Unit  int64
}

// NewStripeDisk builds a striped volume.
func NewStripeDisk(disks []*Disk, unit int64) *StripeDisk {
	return &StripeDisk{Disks: disks, Unit: unit}
}

// segments splits [off, off+n) into per-disk extents.
type extent struct {
	disk int
	off  int64
	n    int
}

func (s *StripeDisk) split(off int64, n int) []extent {
	var out []extent
	for n > 0 {
		unit := off / s.Unit
		within := off % s.Unit
		disk := int(unit % int64(len(s.Disks)))
		phys := (unit/int64(len(s.Disks)))*s.Unit + within
		chunk := int(s.Unit - within)
		if chunk > n {
			chunk = n
		}
		// Coalesce with the previous extent when contiguous on the same disk.
		if len(out) > 0 {
			prev := &out[len(out)-1]
			if prev.disk == disk && prev.off+int64(prev.n) == phys {
				prev.n += chunk
				off += int64(chunk)
				n -= chunk
				continue
			}
		}
		out = append(out, extent{disk: disk, off: phys, n: chunk})
		off += int64(chunk)
		n -= chunk
	}
	return out
}

// Read reads [off, off+n), issuing per-disk extents in parallel and
// returning when the slowest completes.
func (s *StripeDisk) Read(p *sim.Proc, off int64, n int) {
	s.parallel(p, s.split(off, n), true)
}

// Write writes [off, off+n) in parallel across member disks.
func (s *StripeDisk) Write(p *sim.Proc, off int64, n int) {
	s.parallel(p, s.split(off, n), false)
}

func (s *StripeDisk) parallel(p *sim.Proc, exts []extent, read bool) {
	if len(exts) == 1 {
		e := exts[0]
		if read {
			s.Disks[e.disk].Read(p, e.off, e.n)
		} else {
			s.Disks[e.disk].Write(p, e.off, e.n)
		}
		return
	}
	env := p.Env()
	events := make([]*sim.Event, len(exts))
	for i, e := range exts {
		e := e
		ev := env.NewEvent()
		events[i] = ev
		env.Go("stripe-io", func(q *sim.Proc) {
			if read {
				s.Disks[e.disk].Read(q, e.off, e.n)
			} else {
				s.Disks[e.disk].Write(q, e.off, e.n)
			}
			ev.Fire(nil)
		})
	}
	sim.WaitAll(p, events...)
}
