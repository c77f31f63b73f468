package experiments

import (
	"fmt"
	"time"

	"nasd/internal/hw"
	"nasd/internal/sim"
)

func init() { register("active", runActive) }

// Section 6: Active Disks run the frequent-sets counting kernel on the
// drives themselves. "Using the same prototype drives ... we achieve
// 45 MB/s with low-bandwidth 10 Mb/s ethernet networking and only 1/3
// of the hardware used in the NASD PFS tests of Figure 9" — six drive
// machines instead of eight drives plus ten clients, and the network
// carries only the per-drive count vectors.
func runActive(quick bool) (*Result, error) {
	res := &Result{
		ID:    "active",
		Title: "Active Disks: on-drive frequent-sets counting (Section 6)",
	}
	fileMB := 300
	if quick {
		fileMB = 60
	}
	for _, nDrives := range []int{1, 2, 4, 6, 8} {
		rate, netBytes := activeRun(nDrives, fileMB)
		var paper float64
		if nDrives == 6 {
			paper = 45
		}
		res.Rows = append(res.Rows, Row{
			Series: "effective scan rate",
			X:      fmt.Sprintf("%d drives", nDrives),
			Paper:  paper,
			Got:    rate,
			Unit:   "MB/s",
			Note:   fmt.Sprintf("%d KB crossed the 10 Mb/s network", netBytes>>10),
		})
	}
	res.Summary = "scan rate scales with drive count and the network carries only count vectors, so 10 Mb/s Ethernet suffices"
	return res, nil
}

// activeRun simulates nDrives prototype drives each scanning its share
// of the transaction file locally and shipping a count vector to the
// master over shared 10 Mb/s Ethernet. Returns the effective scan rate
// (file bytes / completion time) and total network bytes.
func activeRun(nDrives, fileMB int) (float64, int64) {
	const catalog = 1000
	env := sim.NewEnv()
	ethernet := hw.NewLink(env, "ether10", hw.Ethernet10BytesPerSec, 500*time.Microsecond)
	master := hw.NewCPU(env, "master", 233, 2.2)

	fileBytes := int64(fileMB) << 20
	share := fileBytes / int64(nDrives)
	resultBytes := catalog * 4

	var finished sim.Counter
	var netBytes sim.Counter
	done := env.NewEvent()
	var endTime time.Duration

	for d := 0; d < nDrives; d++ {
		host, disk := hw.NewNASDDrivePrototype(env, fmt.Sprintf("adisk%d", d))
		env.Go(fmt.Sprintf("adisk%d", d), func(p *sim.Proc) {
			// Stream the local share sequentially; the on-drive kernel
			// counts as data arrives (~4 instructions/byte on the
			// 133 MHz Alpha — parse + tally, overlapped with disk I/O
			// via a small pipeline, so we charge the max of the two).
			const chunk = 512 << 10
			for off := int64(0); off < share; off += chunk {
				n := chunk
				if off+int64(n) > share {
					n = int(share - off)
				}
				ioDone := env.NewEvent()
				env.Go("io", func(q *sim.Proc) {
					disk.Read(q, off, n)
					ioDone.Fire(nil)
				})
				host.CPU.Exec(p, 4*float64(n))
				ioDone.Wait(p)
			}
			// Ship the count vector to the master.
			host.CPU.Exec(p, host.Proto.SendInstr(resultBytes))
			ethernet.Transfer(p, resultBytes)
			netBytes.Add(int64(resultBytes))
			master.Exec(p, 50_000+float64(resultBytes)) // merge at master
			finished.Add(1)
			if finished.Total() == int64(nDrives) {
				endTime = p.Now()
				done.Fire(nil)
			}
		})
	}
	env.Run()
	if !done.Fired() || endTime == 0 {
		return 0, 0
	}
	return float64(fileBytes) / endTime.Seconds() / hw.MB, netBytes.Total()
}
