package experiments

import (
	"fmt"
	"time"

	"nasd/internal/hw"
	"nasd/internal/sim"
)

func init() { register("fig6", runFig6) }

// Figure 6 compares, on the prototype "drive" machine (a 133 MHz Alpha
// 3000/400 with two Medallists behind a 32 KB software stripe), the
// apparent sequential bandwidth of: the raw striped device, the NASD
// object system, and Digital UNIX FFS — for reads and writes, cache
// hits and misses, as a function of request size.
//
// The mechanisms that produce the paper's curves, reproduced here:
//   - cache hits are memory-system bound: FFS does one fewer copy than
//     the NASD prototype (~48 vs ~40 MB/s), and both degrade when the
//     request overflows the 512 KB L2 cache;
//   - cache-miss reads are disk-bound: NASD's contiguous object layout
//     streams near the media rate (~5 MB/s) while FFS's block
//     allocation breaks sequentiality every cylinder-group run
//     (~2.5 MB/s);
//   - FFS acknowledges writes of up to 64 KB immediately (write-behind)
//     and waits for the media beyond that; the NASD prototype ran with
//     write-behind fully enabled;
//   - the raw device is measured one synchronous request at a time, so
//     readahead hides positioning for requests under ~128 KB.

// fig6Machine models the host software path: fixed per-request
// overhead, a base per-byte path (syscall, filesystem code, user copy)
// and k internal buffer copies. Rates fall past the 512 KB L2 cache.
type fig6Machine struct {
	fixed      time.Duration
	copies     int
	l2         int
	baseMBps   float64 // base path, within L2
	baseMBpsL2 float64 // base path, L2 overflowed
	copyMBps   float64
	copyMBpsL2 float64
}

var (
	fig6FFS  = fig6Machine{fixed: 250 * time.Microsecond, copies: 1, l2: 384 << 10, baseMBps: 55, baseMBpsL2: 50, copyMBps: 260, copyMBpsL2: 130}
	fig6NASD = fig6Machine{fixed: 300 * time.Microsecond, copies: 2, l2: 384 << 10, baseMBps: 55, baseMBpsL2: 50, copyMBps: 260, copyMBpsL2: 130}
)

// cpuTime is the host-side time to move one request of size n through
// the filesystem path.
func (m fig6Machine) cpuTime(n int) time.Duration {
	base, cp := m.baseMBps, m.copyMBps
	if n > m.l2 {
		base, cp = m.baseMBpsL2, m.copyMBpsL2
	}
	sec := float64(n)/(base*hw.MB) + float64(m.copies)*float64(n)/(cp*hw.MB)
	return m.fixed + time.Duration(sec*float64(time.Second))
}

// newFig6Stripe builds the prototype's two-Medallist stripe.
func newFig6Stripe(env *sim.Env) *hw.StripeDisk {
	d1 := hw.NewDisk(env, hw.MedallistST52160)
	d2 := hw.NewDisk(env, hw.MedallistST52160)
	return hw.NewStripeDisk([]*hw.Disk{d1, d2}, 32<<10)
}

// measure runs reqs sequential requests of size n and returns apparent
// bandwidth in MB/s (size / mean latency), the quantity Figure 6 plots.
func fig6Measure(reqs, n int, perReq func(p *sim.Proc, i int, stripe *hw.StripeDisk)) float64 {
	env := sim.NewEnv()
	stripe := newFig6Stripe(env)
	var total time.Duration
	env.Go("client", func(p *sim.Proc) {
		for i := 0; i < reqs; i++ {
			start := p.Now()
			perReq(p, i, stripe)
			total += p.Now() - start
		}
	})
	env.Run()
	mean := total / time.Duration(reqs)
	return float64(n) / mean.Seconds() / hw.MB
}

// The scenarios.

func fig6RawRead(reqs, n int) float64 {
	return fig6Measure(reqs, n, func(p *sim.Proc, i int, s *hw.StripeDisk) {
		p.Wait(200 * time.Microsecond) // raw device syscall path
		s.Read(p, int64(i)*int64(n), n)
	})
}

func fig6RawWrite(reqs, n int) float64 {
	return fig6Measure(reqs, n, func(p *sim.Proc, i int, s *hw.StripeDisk) {
		p.Wait(200 * time.Microsecond)
		s.Write(p, int64(i)*int64(n), n)
	})
}

func fig6Hit(m fig6Machine, reqs, n int) float64 {
	return fig6Measure(reqs, n, func(p *sim.Proc, i int, s *hw.StripeDisk) {
		p.Wait(m.cpuTime(n)) // served entirely from the host cache
	})
}

// fig6MissNASD: object layout is contiguous, so misses stream.
func fig6MissNASD(reqs, n int) float64 {
	return fig6Measure(reqs, n, func(p *sim.Proc, i int, s *hw.StripeDisk) {
		p.Wait(fig6NASD.cpuTime(n))
		s.Read(p, int64(i)*int64(n), n)
	})
}

// fig6MissFFS: FFS block allocation breaks sequential runs roughly
// every 64 KB (cylinder-group fragmentation), forcing repositioning.
func fig6MissFFS(reqs, n int) float64 {
	const run = 64 << 10
	return fig6Measure(reqs, n, func(p *sim.Proc, i int, s *hw.StripeDisk) {
		p.Wait(fig6FFS.cpuTime(n))
		for done := 0; done < n; done += run {
			chunk := n - done
			if chunk > run {
				chunk = run
			}
			// Alternate between distant regions to defeat readahead,
			// as fragmented FFS allocation does.
			base := int64(i*n+done) + int64(done/run%2)*(256<<20)
			s.Read(p, base, chunk)
		}
	})
}

// fig6WriteNASD: prototype ran with write-behind fully enabled — the
// host cache absorbs the write; the disk write happens lazily.
func fig6WriteNASD(reqs, n int) float64 {
	return fig6Measure(reqs, n, func(p *sim.Proc, i int, s *hw.StripeDisk) {
		p.Wait(fig6NASD.cpuTime(n))
	})
}

// fig6WriteFFS: FFS acknowledges writes up to 64 KB immediately and
// waits for the media beyond.
func fig6WriteFFS(reqs, n int) float64 {
	return fig6Measure(reqs, n, func(p *sim.Proc, i int, s *hw.StripeDisk) {
		p.Wait(fig6FFS.cpuTime(n))
		if n > 64<<10 {
			s.Write(p, int64(i)*int64(n), n)
		}
	})
}

// paper anchor values read off Figure 6 (approximate, MB/s).
var fig6Paper = map[string]map[int]float64{
	"raw read":       {512 << 10: 5.0},
	"raw write":      {512 << 10: 7.0},
	"FFS read hit":   {128 << 10: 48, 512 << 10: 44},
	"NASD read hit":  {128 << 10: 40, 512 << 10: 32},
	"FFS read miss":  {512 << 10: 2.5},
	"NASD read miss": {512 << 10: 5.0},
}

func runFig6(quick bool) (*Result, error) {
	res := &Result{
		ID:    "fig6",
		Title: "NASD prototype bandwidth vs request size (sequential reads and writes)",
	}
	sizes := []int{8 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 384 << 10, 512 << 10}
	if quick {
		sizes = []int{8 << 10, 64 << 10, 128 << 10, 512 << 10}
	}
	reqs := 32
	if quick {
		reqs = 16
	}
	lines := []struct {
		name string
		f    func(reqs, n int) float64
	}{
		{"raw read", fig6RawRead},
		{"raw write", fig6RawWrite},
		{"FFS read hit", func(r, n int) float64 { return fig6Hit(fig6FFS, r, n) }},
		{"NASD read hit", func(r, n int) float64 { return fig6Hit(fig6NASD, r, n) }},
		{"FFS read miss", fig6MissFFS},
		{"NASD read miss", fig6MissNASD},
		{"FFS write (<=64K behind)", fig6WriteFFS},
		{"NASD write (behind)", fig6WriteNASD},
	}
	for _, line := range lines {
		for _, n := range sizes {
			paper := fig6Paper[line.name][n]
			res.Rows = append(res.Rows, Row{
				Series: line.name,
				X:      fmtSize(n),
				Paper:  paper,
				Got:    line.f(reqs, n),
				Unit:   "MB/s",
			})
		}
	}
	res.Summary = "cache hits are memory-bound (FFS's one fewer copy wins); misses are disk-bound (NASD's layout wins ~2x)"
	return res, nil
}

func fmtSize(n int) string {
	if n >= 1<<20 {
		return fmt.Sprintf("%dMB", n>>20)
	}
	return fmt.Sprintf("%dKB", n>>10)
}
