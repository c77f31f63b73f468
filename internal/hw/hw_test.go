package hw

import (
	"math"
	"testing"
	"time"

	"nasd/internal/sim"
)

func run(t *testing.T, fn func(p *sim.Proc, env *sim.Env)) time.Duration {
	t.Helper()
	env := sim.NewEnv()
	env.Go("test", func(p *sim.Proc) { fn(p, env) })
	return env.Run()
}

func TestCPUInstrTime(t *testing.T) {
	env := sim.NewEnv()
	cpu := NewCPU(env, "c", 200, 2.2)
	// 100k instructions at 2.2 CPI on 200 MHz = 1.1 ms.
	got := cpu.InstrTime(100_000)
	want := 1100 * time.Microsecond
	if got != want {
		t.Fatalf("instr time = %v, want %v", got, want)
	}
}

func TestCPUQueueing(t *testing.T) {
	env := sim.NewEnv()
	cpu := NewCPU(env, "c", 100, 1)
	done := 0
	for i := 0; i < 3; i++ {
		env.Go("w", func(p *sim.Proc) {
			cpu.Exec(p, 1e6) // 10 ms each
			done++
		})
	}
	end := env.Run()
	if done != 3 {
		t.Fatal("work lost")
	}
	if end != 30*time.Millisecond {
		t.Fatalf("end = %v, want serialized 30ms", end)
	}
}

func TestCPUIdlePercent(t *testing.T) {
	env := sim.NewEnv()
	cpu := NewCPU(env, "c", 100, 1)
	env.Go("w", func(p *sim.Proc) {
		cpu.Exec(p, 1e6) // 10 ms busy
		p.Wait(30 * time.Millisecond)
	})
	env.Run()
	if idle := cpu.IdlePercent(); math.Abs(idle-75) > 0.5 {
		t.Fatalf("idle = %.1f%%, want 75%%", idle)
	}
}

func TestLinkTransferTime(t *testing.T) {
	end := run(t, func(p *sim.Proc, env *sim.Env) {
		l := NewLink(env, "l", 10*MB, time.Millisecond)
		l.Transfer(p, 1_000_000) // 100 ms + 1 ms latency
	})
	want := 101 * time.Millisecond
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

func TestLinkContention(t *testing.T) {
	env := sim.NewEnv()
	l := NewLink(env, "l", 10*MB, 0)
	for i := 0; i < 2; i++ {
		env.Go("w", func(p *sim.Proc) {
			l.Transfer(p, 1_000_000)
		})
	}
	end := env.Run()
	if end != 200*time.Millisecond {
		t.Fatalf("end = %v, want 200ms (serialized)", end)
	}
}

func TestSendMessageChargesBothEnds(t *testing.T) {
	env := sim.NewEnv()
	a := NewHost(env, "a", NewCPU(env, "a", 100, 1), NewDuplex(env, "a", 100*MB, 0), ProtocolCost{PerMessage: 1e6, SendPerByte: 1, RecvPerByte: 2})
	b := NewHost(env, "b", NewCPU(env, "b", 100, 1), NewDuplex(env, "b", 100*MB, 0), ProtocolCost{PerMessage: 1e6, SendPerByte: 1, RecvPerByte: 2})
	env.Go("xfer", func(p *sim.Proc) {
		SendMessage(p, a, b, 1_000_000)
	})
	end := env.Run()
	// Send CPU: (1e6 + 1e6)/100e6 = 20ms; wire 2x10ms; recv CPU 30ms.
	want := 20*time.Millisecond + 20*time.Millisecond + 30*time.Millisecond
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
	if a.CPU.Utilization() == 0 || b.CPU.Utilization() == 0 {
		t.Fatal("CPU time not charged")
	}
}

// TestBarracudaMicrobench reproduces the four microbenchmarks in Table
// 1's caption: sequential cached single sector 0.30 ms, random single
// sector 9.4 ms, 64 KB cached 2.2 ms, 64 KB random 11.1 ms.
func TestBarracudaMicrobench(t *testing.T) {
	cases := []struct {
		name   string
		seq    bool
		size   int
		wantMs float64
		within float64
	}{
		{"cached sector", true, 512, 0.30, 0.05},
		{"random sector", false, 512, 9.4, 0.5},
		{"cached 64K", true, 64 << 10, 2.2, 0.3},
		{"random 64K", false, 64 << 10, 11.1, 0.6},
	}
	for _, tc := range cases {
		env := sim.NewEnv()
		d := NewDisk(env, BarracudaST34371W)
		var elapsed time.Duration
		env.Go("io", func(p *sim.Proc) {
			if tc.seq {
				// Prime sequential state and give the firmware time to
				// fill its readahead segment.
				d.Read(p, 0, 4096)
				p.Wait(50 * time.Millisecond)
				start := p.Now()
				d.Read(p, 4096, tc.size)
				elapsed = p.Now() - start
			} else {
				d.Read(p, 0, 4096)
				start := p.Now()
				d.Read(p, 1<<30, tc.size) // far away: random
				elapsed = p.Now() - start
			}
		})
		env.Run()
		gotMs := elapsed.Seconds() * 1e3
		if math.Abs(gotMs-tc.wantMs) > tc.within {
			t.Errorf("%s: %.2f ms, paper %.2f ms", tc.name, gotMs, tc.wantMs)
		}
	}
}

func TestDiskSequentialStreamsAtMediaRate(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, MedallistST52160)
	const total = 8 << 20
	var elapsed time.Duration
	env.Go("stream", func(p *sim.Proc) {
		start := p.Now()
		for off := int64(0); off < total; off += 256 << 10 {
			d.Read(p, off, 256<<10)
		}
		elapsed = p.Now() - start
	})
	env.Run()
	rate := float64(total) / elapsed.Seconds() / MB
	// One Medallist streams near its 3.75 MB/s media rate.
	if rate < 3.0 || rate > 5.0 {
		t.Fatalf("stream rate = %.2f MB/s, want ~3.75", rate)
	}
}

func TestDiskRandomMuchSlowerThanSequential(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, MedallistST52160)
	var seqT, rndT time.Duration
	env.Go("io", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < 16; i++ {
			d.Read(p, int64(i)*8192, 8192)
		}
		seqT = p.Now() - start
		start = p.Now()
		for i := 0; i < 16; i++ {
			d.Read(p, int64(i)*100<<20, 8192) // scattered
		}
		rndT = p.Now() - start
	})
	env.Run()
	if rndT < 3*seqT {
		t.Fatalf("random (%v) not much slower than sequential (%v)", rndT, seqT)
	}
}

func TestDiskReadaheadHelpsSmallSequentialReads(t *testing.T) {
	// With host think time between requests, the firmware reads ahead
	// and small sequential reads complete at bus rate, not media rate.
	env := sim.NewEnv()
	d := NewDisk(env, MedallistST52160)
	var secondReadTime time.Duration
	env.Go("io", func(p *sim.Proc) {
		d.Read(p, 0, 8192)
		p.Wait(20 * time.Millisecond) // firmware reads ahead meanwhile
		start := p.Now()
		d.Read(p, 8192, 8192)
		secondReadTime = p.Now() - start
	})
	env.Run()
	// At bus rate (5 MB/s): ~1.6 ms + overhead. At media rate: ~2.2 ms +.
	if secondReadTime > 2500*time.Microsecond {
		t.Fatalf("readahead-hit read took %v", secondReadTime)
	}
}

func TestDiskWriteBehindFasterThanMedia(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, MedallistST52160)
	var wt time.Duration
	env.Go("io", func(p *sim.Proc) {
		start := p.Now()
		d.Write(p, 0, 64<<10)
		wt = p.Now() - start
	})
	env.Run()
	// Bus rate 5 MB/s: ~13 ms. Media rate 3.75: ~17.5 ms.
	if wt > 15*time.Millisecond {
		t.Fatalf("write-behind write took %v", wt)
	}
}

func TestDiskWriteBehindOverflowsToMediaRate(t *testing.T) {
	env := sim.NewEnv()
	params := MedallistST52160
	params.CacheBytes = 64 << 10
	d := NewDisk(env, params)
	var total time.Duration
	env.Go("io", func(p *sim.Proc) {
		start := p.Now()
		for off := int64(0); off < 2<<20; off += 64 << 10 {
			d.Write(p, off, 64<<10)
		}
		total = p.Now() - start
	})
	env.Run()
	rate := float64(2<<20) / total.Seconds() / MB
	// Sustained writes beyond the cache settle near media rate.
	if rate > 4.5 {
		t.Fatalf("sustained write rate %.2f MB/s exceeds media", rate)
	}
}

func TestDiskFlushDrainsDirty(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, MedallistST52160)
	var flushTime time.Duration
	env.Go("io", func(p *sim.Proc) {
		d.Write(p, 0, 256<<10)
		start := p.Now()
		d.Flush(p)
		flushTime = p.Now() - start
	})
	env.Run()
	if flushTime == 0 {
		t.Fatal("flush of dirty data took no time")
	}
}

func TestStripeDiskParallelism(t *testing.T) {
	env := sim.NewEnv()
	d1 := NewDisk(env, MedallistST52160)
	d2 := NewDisk(env, MedallistST52160)
	s := NewStripeDisk([]*Disk{d1, d2}, 32<<10)
	var oneDisk, twoDisk time.Duration
	env.Go("io", func(p *sim.Proc) {
		// 32 KB goes to one disk.
		start := p.Now()
		s.Read(p, 0, 32<<10)
		oneDisk = p.Now() - start
		// 512 KB spans both, roughly halving the time per byte.
		start = p.Now()
		s.Read(p, 32<<10, 512<<10)
		twoDisk = p.Now() - start
	})
	env.Run()
	perByte1 := oneDisk.Seconds() / float64(32<<10)
	perByte2 := twoDisk.Seconds() / float64(512<<10)
	if perByte2 > perByte1 {
		t.Fatalf("striping did not help: %.2e vs %.2e s/B", perByte2, perByte1)
	}
	r1, _, _, _, _ := d1.Stats()
	r2, _, _, _, _ := d2.Stats()
	if r1 == 0 || r2 == 0 {
		t.Fatal("stripe did not use both disks")
	}
}

func TestStripeSplitCoalesces(t *testing.T) {
	env := sim.NewEnv()
	d1 := NewDisk(env, MedallistST52160)
	s := NewStripeDisk([]*Disk{d1}, 32<<10)
	// Single-disk stripe: everything coalesces into one extent.
	exts := s.split(0, 256<<10)
	if len(exts) != 1 || exts[0].n != 256<<10 {
		t.Fatalf("extents = %+v", exts)
	}
}

func TestDuplexDirectionsIndependent(t *testing.T) {
	env := sim.NewEnv()
	d := NewDuplex(env, "nic", 10*MB, 0)
	env.Go("up", func(p *sim.Proc) { d.Up.Transfer(p, 1_000_000) })
	env.Go("down", func(p *sim.Proc) { d.Down.Transfer(p, 1_000_000) })
	end := env.Run()
	if end != 100*time.Millisecond {
		t.Fatalf("full duplex transfers serialized: %v", end)
	}
}

func TestProtocolCost(t *testing.T) {
	pc := ProtocolCost{PerMessage: 1000, SendPerByte: 2, RecvPerByte: 3}
	if pc.SendInstr(100) != 1200 || pc.RecvInstr(100) != 1300 {
		t.Fatal("protocol cost arithmetic wrong")
	}
}
