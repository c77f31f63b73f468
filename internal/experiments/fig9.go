package experiments

import (
	"fmt"
	"time"

	"nasd/internal/hw"
	"nasd/internal/sim"
)

func init() { register("fig9", runFig9) }

// Figure 9: scaling of the parallel data-mining application (the
// I/O-bound 1-itemset pass over a 300 MB sales-transaction file).
//
// Three configurations:
//
//   - NASD: n clients read a single NASD PFS file striped (512 KB unit)
//     across n prototype drives; bandwidth scales linearly at ~6.2 MB/s
//     per client-drive pair up to 45 MB/s at 8 drives. Each drive's
//     dual Medallists supply 7.5 MB/s raw; interleaved chunk streams
//     from multiple clients cost some positioning, hence 6.2.
//   - NFS: all clients read one file striped across n disks inside a
//     fast NFS server (AlphaStation 500/500, two OC-3 links, Cheetahs).
//     Small NFS transfers put the server CPU on every byte and
//     multi-stream access defeats its prefetching: ~20.2 MB/s plateau.
//   - NFS-parallel: each client reads a replica on its own disk through
//     the same server; prefetching works but the store-and-forward CPU
//     still bounds the system: ~22.5 MB/s.
func runFig9(quick bool) (*Result, error) {
	res := &Result{
		ID:    "fig9",
		Title: "Scaling of the parallel data-mining application (aggregate MB/s vs disks)",
	}
	fileMB := 300
	if quick {
		fileMB = 60
	}
	maxDisks := 8
	paperNASD := map[int]float64{1: 6.2, 2: 12.4, 4: 24.8, 8: 45}
	for n := 1; n <= maxDisks; n++ {
		got := fig9NASD(n, fileMB)
		res.Rows = append(res.Rows, Row{
			Series: "NASD (n clients, n drives, one striped PFS file)",
			X:      fmt.Sprintf("%d drives", n),
			Paper:  paperNASD[n],
			Got:    got,
			Unit:   "MB/s",
		})
	}
	paperNFS := map[int]float64{8: 20.2}
	for n := 1; n <= maxDisks; n++ {
		got := fig9NFS(n, fileMB, false)
		res.Rows = append(res.Rows, Row{
			Series: "NFS (single file striped over n server disks, 10 clients)",
			X:      fmt.Sprintf("%d disks", n),
			Paper:  paperNFS[n],
			Got:    got,
			Unit:   "MB/s",
		})
	}
	paperNFSPar := map[int]float64{8: 22.5}
	for n := 1; n <= maxDisks; n++ {
		got := fig9NFS(n, fileMB, true)
		res.Rows = append(res.Rows, Row{
			Series: "NFS-parallel (per-disk file replicas, 10 clients)",
			X:      fmt.Sprintf("%d disks", n),
			Paper:  paperNFSPar[n],
			Got:    got,
			Unit:   "MB/s",
		})
	}
	res.Summary = "NASD scales linearly (~6 MB/s per client-drive pair); the NFS server plateaus near 20-22 MB/s regardless of disks"
	return res, nil
}

// fig9NASD simulates n mining clients reading a striped PFS file from n
// prototype drives and returns aggregate bandwidth.
func fig9NASD(n int, fileMB int) float64 {
	const (
		unit  = 512 << 10
		chunk = 2 << 20
	)
	env := sim.NewEnv()
	type nasdDrive struct {
		host *hw.Host
		disk *hw.StripeDisk
	}
	drives := make([]*nasdDrive, n)
	for i := range drives {
		host, disk := hw.NewNASDDrivePrototype(env, fmt.Sprintf("nasd%d", i))
		drives[i] = &nasdDrive{host: host, disk: disk}
	}
	clients := make([]*hw.Host, n)
	for i := range clients {
		clients[i] = hw.NewAlphaStation255(env, fmt.Sprintf("client%d", i))
	}

	fileBytes := int64(fileMB) << 20
	nChunks := fileBytes / chunk
	var finished sim.Counter
	done := env.NewEvent()
	var endTime time.Duration

	const producers = 4 // the paper's four producer threads per client
	for c := 0; c < n; c++ {
		c := c
		cl := clients[c]
		// This client's stripe units: its round-robin chunks, split into
		// 512 KB units, pulled continuously by four producers ("this
		// threading maximizes overlapping and storage utilization").
		work := env.NewQueue()
		var queued int
		for ch := int64(c); ch < nChunks; ch += int64(n) {
			for u := int64(0); u < chunk/unit; u++ {
				work.Put(ch*(chunk/unit) + u)
				queued++
			}
		}
		remaining := queued
		for pr := 0; pr < producers; pr++ {
			env.Go(fmt.Sprintf("miner%d.%d", c, pr), func(p *sim.Proc) {
				for {
					if work.Len() == 0 {
						return
					}
					logicalUnit := work.Get(p).(int64)
					drv := drives[logicalUnit%int64(n)]
					compOff := (logicalUnit / int64(n)) * unit
					fig9DriveRead(p, cl, drv.host, drv.disk, compOff, unit)
					// Consumer thread: parse and count (~2 instructions
					// per byte on the 233 MHz Alpha).
					cl.CPU.Exec(p, 2*float64(unit))
					remaining--
					if remaining == 0 {
						finished.Add(1)
						if finished.Total() == int64(n) {
							endTime = p.Now()
							done.Fire(nil)
						}
					}
				}
			})
		}
	}
	env.Run()
	if !done.Fired() || endTime == 0 {
		return 0
	}
	return float64(fileBytes) / endTime.Seconds() / hw.MB
}

// fig9DriveRead is one 512 KB object read that misses the drive cache:
// drive CPU (RPC + object system), dual-Medallist disk read, network
// transfer, client receive.
func fig9DriveRead(p *sim.Proc, client, drv *hw.Host, disk *hw.StripeDisk, off int64, n int) {
	client.CPU.Exec(p, client.Proto.SendInstr(200))
	client.NIC.Up.Transfer(p, 200)
	drv.NIC.Down.Transfer(p, 200)
	drv.CPU.Exec(p, drv.Proto.RecvInstr(200))
	// Object system path, cold (Table 1 model).
	drv.CPU.Exec(p, 2900+0.065*float64(n)+7800+0.137*float64(n))
	disk.Read(p, off, n)
	drv.CPU.Exec(p, drv.Proto.SendInstr(n))
	drv.NIC.Up.Transfer(p, n)
	client.NIC.Down.Transfer(p, n)
	client.CPU.Exec(p, client.Proto.RecvInstr(n))
}

// fig9NFS simulates the store-and-forward NFS server: 10 clients, n
// Cheetah disks behind it, 8 KB NFS transfers. In single-file mode the
// interleaved streams defeat server prefetching (a positioning penalty
// roughly every 64 KB per disk); in parallel mode each client has a
// private file on its own disk, so disks stream.
func fig9NFS(n int, fileMB int, parallel bool) float64 {
	const xfer = 8 << 10
	nClients := 10
	if parallel {
		// NFS-parallel: "each client reading from an individual file on
		// an independent disk" — one stream per disk.
		nClients = n
	}
	env := sim.NewEnv()
	server := hw.NewNFSServer500(env, "nfs", n)
	// The NFS server code path is leaner than full DCE RPC per message.
	server.Proto = hw.ProtocolCost{PerMessage: 30000, SendPerByte: 2.55, RecvPerByte: 9.5}

	clients := make([]*hw.Host, nClients)
	for i := range clients {
		clients[i] = hw.NewAlphaStation255(env, fmt.Sprintf("client%d", i))
	}

	fileBytes := int64(fileMB) << 20
	perClient := fileBytes / int64(nClients)
	var finished sim.Counter
	done := env.NewEvent()
	var endTime time.Duration

	// Each client pipelines requests through several BIOD-like daemons.
	const window = 8
	for c := 0; c < nClients; c++ {
		c := c
		cl := clients[c]
		reqs := perClient / xfer
		work := env.NewQueue()
		for r := int64(0); r < reqs; r++ {
			work.Put(r)
		}
		remaining := reqs
		for w := 0; w < window; w++ {
			env.Go(fmt.Sprintf("nfscli%d.%d", c, w), func(p *sim.Proc) {
				for {
					if work.Len() == 0 {
						return
					}
					req := work.Get(p).(int64)
					fig9NFSRequest(p, cl, server, c, req, n, parallel)
					cl.CPU.Exec(p, 2*float64(xfer)) // mining consumer
					remaining--
					if remaining == 0 {
						finished.Add(1)
						if finished.Total() == int64(nClients) {
							endTime = p.Now()
							done.Fire(nil)
						}
					}
				}
			})
		}
	}
	env.Run()
	if !done.Fired() || endTime == 0 {
		return 0
	}
	return float64(fileBytes) / endTime.Seconds() / hw.MB
}

// fig9NFSRequest is one 8 KB store-and-forward NFS read.
func fig9NFSRequest(p *sim.Proc, cl *hw.Host, srv *hw.NFSServerHW, clientIdx int, seq int64, nDisks int, parallel bool) {
	const xfer = 8 << 10
	// Request to the server.
	cl.CPU.Exec(p, cl.Proto.SendInstr(150))
	cl.NIC.Up.Transfer(p, 150)
	nic := srv.NICs[clientIdx%len(srv.NICs)]
	nic.Down.Transfer(p, 150)
	srv.CPU.Exec(p, srv.Proto.RecvInstr(150))

	// Server disk I/O.
	var disk int
	var off int64
	clientBase := int64(clientIdx) << 40
	if parallel {
		// Each client reads its own replica on its own disk: pure
		// sequential per disk.
		disk = clientIdx % nDisks
		off = clientBase + seq*xfer
	} else {
		// Single file striped over the disks in 64 KB units. Ten
		// interleaved client streams defeat the server's prefetching:
		// runs from different streams land at distant offsets, so every
		// stream switch repositions the disk.
		run := seq / 8 // 8 x 8 KB = one 64 KB stripe unit
		disk = int(run) % nDisks
		off = clientBase + seq*xfer
	}
	srv.DiskRead(p, disk, off, xfer)

	// Server copies the data through memory and ships it.
	srv.CPU.Exec(p, srv.Proto.SendInstr(xfer))
	nic.Up.Transfer(p, xfer)
	cl.NIC.Down.Transfer(p, xfer)
	cl.CPU.Exec(p, cl.Proto.RecvInstr(xfer))
}
